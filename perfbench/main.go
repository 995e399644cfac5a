// Command perfbench is the repository's end-to-end benchmark. It drives
// the profiler through the public repro/witch package and the witchd
// service as real child processes reached only over HTTP, checks every
// output against an oracle, and prints one JSON result line:
//
//	perfbench --workload profile|ingest|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the gated end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half and the
// result carries the per-layer metrics, each workload's unexplained
// residual and the tracing overhead. --repeat N runs the workload N times
// (seeds N..N+k) as child processes and prints each metric's median,
// quartiles and spread. See NOTES.md for what each workload and metric
// means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	witchd  string // path of the witchd binary under test
	work    string // private scratch directory for data dirs and traces
	tiny    bool   // smoke-test sizes
	// corrupt names an output check whose oracle is deliberately
	// corrupted; the run must then report the check as failed.
	corrupt string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measured: operation counts, the failures
// among them (operations that failed plus output checks that did not
// hold), and metric values keyed by name (units come from the tables).
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	// p50 are the operations whose median is p50_ms, each split into
	// the load generator's lateness and the time the operation itself
	// took, so scaling can leave the generator's timer alone.
	p50 []latency
}

// latency is one operation's latency in ms: late is how long after its
// scheduled time the generator issued it, work the rest until it ended.
type latency struct{ late, work float64 }

// p50Of is the median of late + work*f over the operations.
func p50Of(ls []latency, f float64) float64 {
	xs := make([]float64, len(ls))
	for i, l := range ls {
		xs[i] = l.late + l.work*f
	}
	return percentile(xs, 0.5)
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail counts one failed operation or check and says why on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"profile": runProfile,
	"ingest":  runIngest,
	"fleet":   runFleet,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: profile, ingest or fleet")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and summarize")
		witchd  = flag.String("witchd", "", "witchd binary")
		work    = flag.String("work", "", "scratch directory")
		tiny    = flag.Bool("tiny", false, "smoke-test sizes")
		corrupt = flag.String("corrupt", "", "corrupt the named check's oracle (smoke test)")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want profile, ingest or fleet)\n", *name)
		os.Exit(2)
	}
	if *witchd == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --witchd and --work are required (run through run.sh)")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*name, *seed, *seconds, *trace == 1, *repeat, *witchd, *work); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		witchd: *witchd, work: dir, tiny: *tiny, corrupt: *corrupt}
	logEnvironment(cfg, *name)
	start := time.Now()
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{}}
	table := endToEnd
	if cfg.trace {
		table = perLayer
	} else if err := scaleToReferenceHost(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := checkMeasured(*name, table, out.values); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, m := range table {
		res.Metrics[m.name] = metric{Value: out.values[m.name], Unit: m.unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *name)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs: attempted %d failed %d\n",
		*name, *seed, time.Since(start).Seconds(), out.attempted, out.failed)
	// A failed run keeps its node logs and data for inspection.
	if out.failed == 0 {
		os.RemoveAll(dir)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: kept %s for inspection\n", dir)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// scaleToReferenceHost scales the gated times to a host where the
// calibration kernel takes calibRefMs (calib.go), each by the kernel's
// time on its own clock: cpu_us_per_op by the CPU time; setup_s and the
// work part of each p50_ms operation by the wall time. It records the
// kernel times and the unscaled values on stderr, where --repeat picks
// them up.
func scaleToReferenceHost(out *outcome) error {
	v := out.values
	wall, cpu := v["host.calib_ms"], v["host.calib_cpu_ms"]
	if wall <= 0 || cpu <= 0 || len(out.p50) == 0 {
		return fmt.Errorf("no calibration kernel times or latencies to scale")
	}
	raw := map[string]float64{"host.calib_ms": wall, "host.calib_cpu_ms": cpu,
		"unscaled.setup_s": v["setup_s"], "unscaled.p50_ms": v["p50_ms"], "unscaled.cpu_us_per_op": v["cpu_us_per_op"]}
	line, _ := json.Marshal(raw)
	fmt.Fprintf(os.Stderr, "%s%s\n", unscaledPrefix, line)
	v["setup_s"] *= calibRefMs / wall
	v["p50_ms"] = p50Of(out.p50, calibRefMs/wall)
	v["cpu_us_per_op"] *= calibRefMs / cpu
	return nil
}

const unscaledPrefix = "perfbench: unscaled "

// checkMeasured fails a run that did not measure a metric its workload
// is listed for, or that set a metric no table names: either is a
// mistyped key or a layer the run lost track of, which would otherwise
// print as a plausible 0.
func checkMeasured(workload string, table []metricDef, values map[string]float64) error {
	known := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[m.name] = true
	}
	for k := range values {
		if !known[k] {
			return fmt.Errorf("set metric %q, which no table names", k)
		}
	}
	for _, m := range table {
		if _, ok := values[m.name]; !ok && m.measuredBy(workload) {
			return fmt.Errorf("did not measure %s", m.name)
		}
	}
	return nil
}

// logEnvironment records on stderr what a reader needs to compare runs:
// machine size, GOMAXPROCS of this process and of each witchd (neither
// sets it, so both take the CPU count), the toolchain, the seed and the
// fixed settings of the workload.
func logEnvironment(cfg config, name string) {
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s data=%s\n",
		name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.work)
	switch name {
	case "ingest":
		fmt.Fprintf(os.Stderr, "perfbench: ingest rate=%d/s pushers=%d conns=%d witchd flags: defaults + -addr (memory only, trace-ring=4096)\n",
			ingestRate, ingestPushers, conns())
	case "fleet":
		fmt.Fprintf(os.Stderr, "perfbench: fleet rate=%d/s reads=%d bursts/s x %d pushers=%d conns=%d witchd flags: defaults + -addr -data-dir -fsync off -peers -advertise (RF=2)\n",
			fleetRate, fleetBurstsPerSec, fleetBurstReads, fleetPushers, conns())
	}
}

// conns is the connection budget the pushers share per witchd node.
func conns() int { return runtime.NumCPU() }
