package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload n times as child processes of this
// binary, seeds seed..seed+n-1, and prints per metric the median, the
// quartiles, the quartile spread as a share of the median (the steadiness
// test BENCHMARK.json's bounds are judged by) and the min/max spread.
// Untraced runs also print and summarize the calibration kernel time,
// the factor and p50_ms before scaling.
func repeatRuns(name string, seed int64, seconds float64, trace bool, n int, witchd, work string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		args := []string{"--workload", name, "--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
		if trace {
			args[len(args)-1] = "1"
		}
		args = append(args, "--witchd", witchd, "--work", work)
		cmd := exec.Command(self, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			os.Stderr.Write(stderr.Bytes())
			return fmt.Errorf("run %d: %w", i, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("run %d: bad result line: %w", i, err)
		}
		fmt.Printf("run %d seed %d: correct=%v attempted=%d failed=%d", i, seed+int64(i), res.Correct, res.Attempted, res.Failed)
		if !trace {
			for _, m := range endToEnd {
				fmt.Printf(" %s=%.4g", m.name, res.Metrics[m.name].Value)
			}
		}
		raw := unscaled(stderr.String())
		for _, k := range sortedKeys(raw) {
			fmt.Printf(" %s=%.4g", k, raw[k])
		}
		fmt.Println()
		if !res.Correct {
			for _, line := range strings.Split(stderr.String(), "\n") {
				if strings.Contains(line, "FAIL") {
					fmt.Println("  ", line)
				}
			}
			return fmt.Errorf("run %d (seed %d) failed its output checks", i, seed+int64(i))
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		// The calibration factor and p50_ms before scaling, so the scaled
		// and unscaled spreads compare on the same runs.
		for k, x := range raw {
			values[k] = append(values[k], x)
			units[k] = "(stderr)"
		}
	}
	names := sortedKeys(values)
	fmt.Printf("%-32s %12s %12s %12s %8s %8s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "unit")
	for _, k := range names {
		xs := values[k]
		q1, med, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		iqr, rng := 0.0, 0.0
		if med != 0 {
			iqr, rng = (q3-q1)/med, (hi-lo)/med
		}
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %8.3f %8.3f  %s\n", k, q1, med, q3, iqr, rng, units[k])
	}
	return nil
}

// unscaled parses the calibration line a run printed on stderr.
func unscaled(stderr string) map[string]float64 {
	raw := map[string]float64{}
	for _, line := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(line, unscaledPrefix); ok {
			json.Unmarshal([]byte(rest), &raw)
		}
	}
	return raw
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
