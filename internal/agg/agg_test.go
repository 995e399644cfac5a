package agg

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/witch"
)

// synth builds a profile with exactly-representable metric values so
// merge-order arithmetic is bit-exact and the associativity property
// can demand equality, not tolerance.
func synth(tool, program string, scale float64, pairs int) *witch.Profile {
	var ps []witch.Pair
	var waste, use float64
	for i := 0; i < pairs; i++ {
		w := scale * float64(8*(pairs-i)) // descending, integer-valued
		u := scale * float64(4*(i+1))
		ps = append(ps, witch.Pair{
			Src:   fmt.Sprintf("src.wa:f:%d", i),
			Dst:   fmt.Sprintf("dst.wa:g:%d", i),
			Chain: fmt.Sprintf("main -> f%d -> g%d", i, i),
			Waste: w, Use: u,
			SrcLine: i + 1, DstLine: i + 2,
		})
		waste += w
		use += u
	}
	return witch.NewProfile(witch.Profile{
		Program:    program,
		Tool:       tool,
		Redundancy: waste / (waste + use),
		Waste:      waste,
		Use:        use,
		WallTime:   time.Millisecond,
		Instrs:     1000,
		Loads:      300,
		Stores:     200,
	}, ps)
}

// run profiles a real workload so the properties also hold on profiles
// with proportional-attribution float values.
func run(t *testing.T, seed int64) *witch.Profile {
	t.Helper()
	prog, err := witch.Workload("listing3")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := witch.Run(prog, witch.Options{Tool: witch.DeadStores, Period: 97, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.TopPairs(0)) == 0 {
		t.Fatal("profile has no pairs")
	}
	return prof
}

func pairsEqual(t *testing.T, want, got []witch.Pair, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", context, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", context, i, got[i], want[i])
		}
	}
}

// stateOf merges profiles into one partition, in order, and returns
// its State.
func stateOf(profs ...*witch.Profile) *State {
	var p Partition
	for _, prof := range profs {
		p.Merge(prof)
	}
	return p.State()
}

// viewOf folds States into a fresh view, in order.
func viewOf(sts ...*State) *View {
	var v View
	for _, st := range sts {
		v.Fold(*st)
	}
	return &v
}

// TestMergeIdentity: merging one profile and snapshotting it back is
// lossless — same pairs in the same rank order, same scalars — which is
// the single-source round-trip the acceptance criteria demand; and an
// empty State contributes nothing (merge with empty is identity).
func TestMergeIdentity(t *testing.T) {
	prof := run(t, 1)
	st := stateOf(prof)
	a := viewOf(Merge(st, &State{})) // identity: empty right operand
	b := viewOf(Merge(&State{}, st)) // identity: empty left operand
	for _, snap := range []*witch.Profile{a.SnapshotTop(prof.Tool, "", 0), b.SnapshotTop(prof.Tool, "", 0)} {
		if snap == nil {
			t.Fatal("nil snapshot")
		}
		pairsEqual(t, prof.TopPairs(0), snap.TopPairs(0), "identity")
		if snap.Waste != prof.Waste || snap.Use != prof.Use {
			t.Fatalf("waste/use drifted: %g/%g want %g/%g", snap.Waste, snap.Use, prof.Waste, prof.Use)
		}
		if snap.Redundancy != prof.Redundancy {
			t.Fatalf("redundancy drifted: %g want %g", snap.Redundancy, prof.Redundancy)
		}
		if snap.Program != prof.Program || snap.Tool != prof.Tool {
			t.Fatalf("identity fields drifted: %q/%q", snap.Program, snap.Tool)
		}
		if snap.Stats != prof.Stats {
			t.Fatalf("stats drifted: %+v want %+v", snap.Stats, prof.Stats)
		}
		if snap.Health != prof.Health {
			t.Fatalf("health drifted: %+v want %+v", snap.Health, prof.Health)
		}
	}
}

// TestMergeSelfDoubles: merging a profile with itself doubles waste and
// use of every pair (and the totals) while preserving pair ranking and
// the redundancy fraction — §4.2 proportional attribution survives
// aggregation. Doubling any float is exact, so equality is exact.
func TestMergeSelfDoubles(t *testing.T) {
	prof := run(t, 1)
	snap := viewOf(stateOf(prof, prof)).SnapshotTop(prof.Tool, "", 0)

	orig := prof.TopPairs(0)
	got := snap.TopPairs(0)
	if len(got) != len(orig) {
		t.Fatalf("pair count changed: %d want %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i].Src != orig[i].Src || got[i].Dst != orig[i].Dst || got[i].Chain != orig[i].Chain {
			t.Fatalf("rank %d changed identity: %+v want %+v", i, got[i], orig[i])
		}
		if got[i].Waste != 2*orig[i].Waste || got[i].Use != 2*orig[i].Use {
			t.Fatalf("rank %d not doubled: waste %g use %g, want %g/%g",
				i, got[i].Waste, got[i].Use, 2*orig[i].Waste, 2*orig[i].Use)
		}
	}
	if snap.Waste != 2*prof.Waste || snap.Use != 2*prof.Use {
		t.Fatalf("totals not doubled: %g/%g", snap.Waste, snap.Use)
	}
	if snap.Redundancy != prof.Redundancy {
		t.Fatalf("redundancy moved under self-merge: %g want %g", snap.Redundancy, prof.Redundancy)
	}
	if snap.Stats.Samples != 2*prof.Stats.Samples {
		t.Fatalf("stats not summed: %d want %d", snap.Stats.Samples, 2*prof.Stats.Samples)
	}
}

// TestMergeAssociative: ((p1⊕p2)⊕p3) == (p1⊕(p2⊕p3)) == one partition
// fed all three, including across Merge (State-to-State) folds and a
// View fold. Exact equality holds because the synthetic metric values
// are small integers times a power of two.
func TestMergeAssociative(t *testing.T) {
	p1 := synth("dead", "alpha", 1, 6)
	p2 := synth("dead", "alpha", 0.5, 6)
	p3 := synth("dead", "beta", 2, 4)

	direct := viewOf(stateOf(p1, p2, p3))
	left := viewOf(Merge(stateOf(p1, p2), stateOf(p3)))  // (p1 ⊕ p2) ⊕ p3
	right := viewOf(Merge(stateOf(p1), stateOf(p2, p3))) // p1 ⊕ (p2 ⊕ p3)
	folded := viewOf(stateOf(p1), stateOf(p2, p3))

	want := direct.SnapshotTop("dead", "", 0)
	for name, v := range map[string]*View{"left-assoc": left, "right-assoc": right, "view fold": folded} {
		got := v.SnapshotTop("dead", "", 0)
		pairsEqual(t, want.TopPairs(0), got.TopPairs(0), name)
		if got.Waste != want.Waste || got.Use != want.Use || got.Redundancy != want.Redundancy {
			t.Fatalf("%s: scalars differ: %g/%g/%g want %g/%g/%g", name,
				got.Waste, got.Use, got.Redundancy, want.Waste, want.Use, want.Redundancy)
		}
	}

	// Program filter slices out exactly one program's contribution.
	alpha := direct.SnapshotTop("dead", "alpha", 0)
	if alpha.Waste != p1.Waste+p2.Waste {
		t.Fatalf("program filter waste %g, want %g", alpha.Waste, p1.Waste+p2.Waste)
	}
	if n := len(alpha.TopPairs(0)); n != 6 {
		t.Fatalf("program filter kept %d pairs, want 6", n)
	}
}

// TestToolsAreRouted: profiles of different tools never cross-merge.
func TestToolsAreRouted(t *testing.T) {
	a := viewOf(stateOf(synth("dead", "p", 1, 3), synth("load", "p", 1, 5)))
	if len(a.metas) != 2 || a.metas[0].Tool != "dead" || a.metas[1].Tool != "load" {
		t.Fatalf("metas = %+v, want one per tool", a.metas)
	}
	if n := len(a.SnapshotTop("dead", "", 0).TopPairs(0)); n != 3 {
		t.Fatalf("dead snapshot has %d pairs, want 3", n)
	}
	if n := len(a.SnapshotTop("load", "", 0).TopPairs(0)); n != 5 {
		t.Fatalf("load snapshot has %d pairs, want 5", n)
	}
	if a.SnapshotTop("silent", "", 0) != nil {
		t.Fatal("snapshot of unmerged tool should be nil")
	}
}

// TestMergeHealthCombination: counters sum, flags OR, register counts
// take worst-case, and zero EffectiveRegs (no substrate) never wins.
func TestMergeHealthCombination(t *testing.T) {
	x := witch.Health{SignalsLost: 2, ConfiguredRegs: 4, EffectiveRegs: 3, SampleLoss: true, Degraded: true}
	y := witch.Health{ArmFailures: 1, ConfiguredRegs: 2, EffectiveRegs: 2, RegistersShrunk: true, Degraded: true}
	got := MergeHealth(x, y)
	want := witch.Health{
		SignalsLost: 2, ArmFailures: 1,
		ConfiguredRegs: 4, EffectiveRegs: 2,
		RegistersShrunk: true, SampleLoss: true, Degraded: true,
	}
	if got != want {
		t.Fatalf("MergeHealth = %+v, want %+v", got, want)
	}
	if got := MergeHealth(witch.Health{}, x); got != x {
		t.Fatalf("zero-identity broken: %+v", got)
	}
	if got := MergeHealth(x, witch.Health{}); got != x {
		t.Fatalf("zero right operand changed health: %+v", got)
	}
}

// TestConcurrentMergeAndSnapshot drives parallel ingest and compaction
// against one partition's mutex; run under -race this is the
// partition's half of the concurrency satellite.
func TestConcurrentMergeAndSnapshot(t *testing.T) {
	prof := run(t, 1)
	var a Partition
	const (
		writers = 8
		perG    = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := synth("dead", fmt.Sprintf("prog-%d", w%4), 1, 8)
			for i := 0; i < perG; i++ {
				a.Merge(p)
				a.Merge(prof)
			}
		}(w)
	}
	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if s := viewOf(a.State()).SnapshotTop("dead", "", 0); s != nil {
					_ = s.TopPairs(5)
				}
			}
		}()
	}
	wg.Wait()
	v := viewOf(a.State())
	want := uint64(writers * perG * 2)
	var merged uint64
	for _, m := range v.metas {
		merged += m.Profiles
	}
	if got := merged; got != want {
		t.Fatalf("merged %d profiles, want %d", got, want)
	}
	// The synthetic profiles ("dead") and the real ones (prof.Tool,
	// "DeadCraft") are separate tool groups; neither may lose a merge.
	merges := float64(writers * perG)
	synthWant := merges * synth("dead", "x", 1, 8).Waste
	if got := v.SnapshotTop("dead", "", 0).Waste; got != synthWant {
		t.Fatalf("concurrent synth merge lost waste: %g, want %g", got, synthWant)
	}
	profWant := merges * prof.Waste
	got := v.SnapshotTop(prof.Tool, "", 0).Waste
	if diff := got - profWant; diff > 1e-6*profWant || diff < -1e-6*profWant {
		t.Fatalf("concurrent real merge lost waste: %g, want ~%g", got, profWant)
	}
}
