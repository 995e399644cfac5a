package harness

import (
	"bytes"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/witch"
)

// quick is the test configuration: representative subset, small sweep.
var quick = Options{Quick: true, Seed: 1}

func runExp(t *testing.T, fn func(io.Writer, Options) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fn(&buf, quick); err != nil {
		// The report printed before the failing gate is the evidence.
		t.Log(buf.String())
		t.Fatal(err)
	}
	return buf.String()
}

// pcts extracts all percentage values from a report line.
func pcts(line string) []float64 {
	re := regexp.MustCompile(`(\d+(?:\.\d+)?)%`)
	var out []float64
	for _, m := range re.FindAllStringSubmatch(line, -1) {
		v, _ := strconv.ParseFloat(m[1], 64)
		out = append(out, v)
	}
	return out
}

func TestFigure2ProportionalBeatsAblations(t *testing.T) {
	out := runExp(t, Figure2)
	var full, noProp []float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "witch (reservoir") {
			full = pcts(line)
		}
		if strings.HasPrefix(line, "without proportional") {
			noProp = pcts(line)
		}
	}
	if len(full) != 3 || len(noProp) != 3 {
		t.Fatalf("could not parse shares:\n%s", out)
	}
	// Full witch: a > b > x and a near 50%; ablation: x inflated.
	if !(full[0] > full[1] && full[1] > full[2]) {
		t.Fatalf("full witch shares not ordered a>b>x: %v", full)
	}
	if full[0] < 38 || full[0] > 62 {
		t.Fatalf("a share = %v, want near 50", full[0])
	}
	if noProp[2] < full[2]*2 {
		t.Fatalf("ablation should inflate x: full=%v ablated=%v", full[2], noProp[2])
	}
}

func TestFigure4MeanErrorSmall(t *testing.T) {
	out := runExp(t, Figure4)
	re := regexp.MustCompile(`mean \|error\| at median rate: (\d+(?:\.\d+)?) pp`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no mean error line:\n%s", out)
	}
	v, _ := strconv.ParseFloat(m[1], 64)
	if v > 6 {
		t.Fatalf("mean |error| = %vpp, want small (paper: highly accurate)", v)
	}
}

func TestFigure5RunsAllRegisterCounts(t *testing.T) {
	out := runExp(t, Figure5)
	if !strings.Contains(out, "4 regs") || !strings.Contains(out, "h264ref") {
		t.Fatalf("figure 5 incomplete:\n%s", out)
	}
}

// TestTable1SpiesCostMoreThanCrafts asserts the paper's Table 1 claim —
// exhaustive spies cost an order of magnitude more than sampling
// crafts — on deterministic counters, not wall-clock ratios: a craft's
// work is its substrate operations (samples, traps, fd opens/closes,
// modifies, disassembled instructions), a spy's work is the accesses it
// instruments (every load and store), and memory cost is ToolBytes.
// Wall time still appears in the report but is too noisy to gate a test
// on (a loaded CI machine can compress the slowdown ratio arbitrarily).
func TestTable1SpiesCostMoreThanCrafts(t *testing.T) {
	out := runExp(t, Table1)
	// The report itself must still carry the geomean summary rows.
	re := regexp.MustCompile(`DeadCraft/DeadSpy\s+(\d+\.\d+)x\s+(\d+\.\d+)x\s+(\d+\.\d+)x\s+(\d+\.\d+)x`)
	if re.FindStringSubmatch(out) == nil {
		t.Fatalf("no geomean row:\n%s", out)
	}

	for _, tool := range tools {
		var craftBytes, spyBytes uint64
		for _, name := range quick.suiteNames() {
			craft, err := witch.Run(mustWorkload(name), witch.Options{Tool: tool, Seed: quick.Seed})
			if err != nil {
				t.Fatal(err)
			}
			spy, err := witch.RunExhaustive(mustWorkload(name), tool)
			if err != nil {
				t.Fatal(err)
			}
			craftWork := craft.Stats.Samples + craft.Stats.Traps + craft.Stats.Opens +
				craft.Stats.Closes + craft.Stats.Modifies + craft.Stats.DisasmInstrs
			spyWork := spy.Loads + spy.Stores
			if spyWork < 10*craftWork {
				t.Fatalf("%s/%v: spy work %d not an order of magnitude over craft work %d",
					name, tool, spyWork, craftWork)
			}
			craftBytes += craft.ToolBytes
			spyBytes += spy.ToolBytes
		}
		// Memory: the spy's shadow state dwarfs the craft's fixed-size
		// reservoir + watchpoint bookkeeping across the suite.
		if spyBytes < 3*craftBytes {
			t.Fatalf("%v: spy bytes %d should dwarf craft bytes %d", tool, spyBytes, craftBytes)
		}
	}
}

func TestTable3SpeedupsAndDetection(t *testing.T) {
	out := runExp(t, Table3)
	// Every case row reports a speedup > 1 and a nonzero redundancy.
	re := regexp.MustCompile(`(\d+\.\d+)x\s+(\d+\.\d+)x\s*$`)
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		m := re.FindStringSubmatch(strings.TrimRight(line, " "))
		if m == nil {
			continue
		}
		rows++
		speedup, _ := strconv.ParseFloat(m[1], 64)
		if speedup <= 1.0 {
			t.Fatalf("non-speedup row: %s", line)
		}
	}
	if rows < 16 {
		t.Fatalf("only %d case rows", rows)
	}
}

func TestBlindSpotsSmall(t *testing.T) {
	out := runExp(t, BlindSpots)
	re := regexp.MustCompile(`worst case: \S* at (\d+(?:\.\d+)?)%`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no worst-case line:\n%s", out)
	}
	v, _ := strconv.ParseFloat(m[1], 64)
	if v > 5 {
		t.Fatalf("worst blind spot %v%%, want small", v)
	}
}

func TestDominanceFewPairs(t *testing.T) {
	out := runExp(t, Dominance)
	re := regexp.MustCompile(`median pairs to 90%: (\d+)`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no median line:\n%s", out)
	}
	n, _ := strconv.Atoi(m[1])
	if n >= 5 {
		t.Fatalf("median pairs = %d, paper says fewer than five", n)
	}
}

func TestAdversaryNearPaperConstant(t *testing.T) {
	out := runExp(t, Adversary)
	// For H=1000 the 1/e-survival lifetime should be near 1.7·1000.
	re := regexp.MustCompile(`1000\s+1\s+(\d+)\s+(\d+)\s+(\d+)`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no H=1000 row:\n%s", out)
	}
	quantE, _ := strconv.ParseFloat(m[2], 64)
	if quantE < 1400 || quantE > 2100 {
		t.Fatalf("1/e lifetime = %v, want ≈1718", quantE)
	}
}

func TestStabilityLowVariance(t *testing.T) {
	out := runExp(t, Stability)
	re := regexp.MustCompile(`(\d+\.\d+)pp\s+\d`)
	total := 0
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		v, _ := strconv.ParseFloat(m[1], 64)
		if v > 5 {
			t.Fatalf("stddev %vpp too high:\n%s", v, out)
		}
		total++
	}
	if total != 3 {
		t.Fatalf("expected 3 tool rows, got %d:\n%s", total, out)
	}
}

func TestRankOrderMostlyMatches(t *testing.T) {
	out := runExp(t, RankOrder)
	if !strings.Contains(out, "edit dist") {
		t.Fatalf("rank table malformed:\n%s", out)
	}
}

func TestAblationsStructure(t *testing.T) {
	out := runExp(t, Ablations)
	// IOC_MODIFY keeps opens tiny; the fallback opens hundreds.
	re := regexp.MustCompile(`full witch\s+(\d+)\s`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no full-witch row:\n%s", out)
	}
	opens, _ := strconv.Atoi(m[1])
	if opens > 8 {
		t.Fatalf("full witch opened %d fds, want ≤ regs", opens)
	}
	re2 := regexp.MustCompile(`no IOC_MODIFY \(close\+reopen\)\s+(\d+)\s`)
	m2 := re2.FindStringSubmatch(out)
	if m2 == nil {
		t.Fatalf("no fallback row:\n%s", out)
	}
	reopens, _ := strconv.Atoi(m2[1])
	if reopens <= opens {
		t.Fatal("fallback should open far more fds")
	}
	// sigaltstack eliminates spurious traps.
	if !regexp.MustCompile(`sigaltstack \(witch\)\s+0\s`).MatchString(out) {
		t.Fatalf("sigaltstack row should show zero spurious traps:\n%s", out)
	}
}

// TestChaosBoundedDegradation runs the fault-injection sweep; Chaos
// itself errors if the zero-rate row is unhealthy, an injected row fails
// to surface in Health, or the error at ≤10% faults exceeds the bound,
// so a clean return is the assertion. The output check guards the
// summary line the bound is reported on.
func TestChaosBoundedDegradation(t *testing.T) {
	out := runExp(t, Chaos)
	if !strings.Contains(out, "degradation is bounded") {
		t.Fatalf("chaos summary missing:\n%s", out)
	}
	if !strings.Contains(out, "2% + bursts") {
		t.Fatalf("burst-window row missing:\n%s", out)
	}
}

// TestIngestGroupCommitSpeedup runs the ingest macro-benchmark in quick
// mode; Ingest itself errors if group commit fails its throughput gate
// (2x in quick mode, 5x full) or the pooled codecs fail the ≥50%
// allocation-reduction gate, so a clean return is the assertion. Quick
// mode never writes BENCH_ingest.json, so the test has no side effects.
func TestIngestGroupCommitSpeedup(t *testing.T) {
	out := runExp(t, Ingest)
	if !strings.Contains(out, "group commit speedup") {
		t.Fatalf("ingest summary missing:\n%s", out)
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, name := range []string{"fig2", "fig4", "fig5", "table1", "table2", "table3",
		"blindspot", "dominance", "adversary", "stability", "rank", "ablations", "chaos",
		"ingest", "delivery", "cluster", "replica", "all"} {
		if reg[name] == nil {
			t.Fatalf("missing experiment %q", name)
		}
	}
	if len(Names()) != len(reg) {
		t.Fatal("Names() out of sync")
	}
}
