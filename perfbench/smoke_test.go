package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The smoke test runs every workload at tiny sizes through the built
// binary, as the benchmark's users do:
//
//	cd perfbench && go test .
//
// It checks that each run prints every named metric with its unit and
// passes its output checks, that each check fails when its oracle is
// deliberately corrupted, and that BENCHMARK.json names the same metrics.

// buildBinaries compiles witchd and perfbench into a temporary directory.
func buildBinaries(t *testing.T) (bench, witchd, work string) {
	t.Helper()
	dir := t.TempDir()
	bench, witchd = filepath.Join(dir, "perfbench"), filepath.Join(dir, "witchd")
	for _, b := range []struct{ dir, out, pkg string }{{"..", witchd, "./cmd/witchd"}, {".", bench, "."}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkg, err, out)
		}
	}
	return bench, witchd, filepath.Join(dir, "work")
}

// runTiny runs one workload at smoke-test size and parses its result line.
func runTiny(t *testing.T, bench, witchd, work, workload, trace string, extra ...string) result {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"--tiny", "--witchd", witchd, "--work", work}, extra...)
	cmd := exec.Command(bench, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v", workload, extra, err)
	}
	var res result
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out)
	}
	return res
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	bench, witchd, work := buildBinaries(t)
	for _, w := range []string{"profile", "ingest", "fleet"} {
		for trace, table := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			res := runTiny(t, bench, witchd, work, w, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(table))
			}
			for _, m := range table {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %q", w, trace, m.name, got, m.unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, m.name, got.Value)
				}
			}
			if trace == "1" {
				for _, name := range mustBePositive[w] {
					if v := res.Metrics[name].Value; v <= 0 {
						t.Errorf("%s: per-layer metric %s is %v, want > 0", w, name, v)
					}
				}
			}
		}
	}
}

// mustBePositive are per-layer metrics that cannot be 0 when the layer
// did its work: a 0 means the benchmark lost track of the layer.
var mustBePositive = map[string][]string{
	"profile": {"machine.ns_per_instr", "witch.samples_per_minstr", "witch.tool_kb"},
	"ingest":  {"daemon.ingest_ms", "daemon.decode_ms", "agg.merge_ms", "witch.attempt_p50_ms"},
	"fleet":   {"daemon.ingest_ms", "cluster.replicate_ms", "cluster.forward_frac", "daemon.query_ms", "wal.bytes_per_ack"},
}

// A series or stage the benchmark reads but /metrics lacks must fail the
// run, and so must a metric its workload is listed for but did not set,
// or one set under a name no table knows.
func TestMissingMeasurementsFail(t *testing.T) {
	before := []map[string]float64{{"witchd_ingest_shed_total": 0}}
	after := []map[string]float64{{"witchd_ingest_shed_total": 0,
		`witchd_stage_duration_seconds_count{stage="ingest"}`: 4,
		`witchd_stage_duration_seconds_sum{stage="ingest"}`:   0.002}}
	d := diffScrapes(before, after)
	if got := d.stageMs("ingest"); got != 0.5 || d.err() != nil {
		t.Fatalf("stageMs(ingest) = %v, err %v; want 0.5 and no error", got, d.err())
	}
	d.get("witchd_ingest_shed_total")
	if d.err() != nil {
		t.Fatalf("a present zero counter is not missing: %v", d.err())
	}
	d.stageMs("replicate")
	if d.err() == nil {
		t.Fatal("a stage absent from /metrics did not fail")
	}
	d = diffScrapes(after, after)
	if d.stageMs("ingest"); d.err() == nil {
		t.Fatal("a stage with no observations in the window did not fail")
	}

	values := map[string]float64{}
	for _, m := range perLayer {
		if m.measuredBy("ingest") {
			values[m.name] = 1
		}
	}
	if err := checkMeasured("ingest", perLayer, values); err != nil {
		t.Fatalf("complete ingest values: %v", err)
	}
	delete(values, "daemon.ingest_ms")
	if checkMeasured("ingest", perLayer, values) == nil {
		t.Error("ingest without daemon.ingest_ms passed")
	}
	values["daemon.ingest_ms"], values["daemon.ingst_ms"] = 1, 1
	if checkMeasured("ingest", perLayer, values) == nil {
		t.Error("a mistyped metric name passed")
	}
}

func TestChecksFailOnCorruptedOracle(t *testing.T) {
	bench, witchd, work := buildBinaries(t)
	for _, c := range []struct{ workload, check string }{
		{"profile", "determinism"},
		{"profile", "truth"},
		{"ingest", "oracle"},
		{"fleet", "oracle"},
	} {
		res := runTiny(t, bench, witchd, work, c.workload, "0", "--corrupt", c.check)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted %s oracle: correct=%v failed=%d, want the check to fail",
				c.workload, c.check, res.Correct, res.Failed)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		table []metricDef
		spec  []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.spec) != len(c.table) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.name, len(c.spec), len(c.table))
		}
		for i, m := range c.table {
			if s := c.spec[i]; s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.name, i, s, m)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
}
