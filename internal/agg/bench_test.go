package agg_test

import (
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/witch"
)

// benchProfile builds the merge-benchmark input: a real h264ref
// DeadStores profile (~11 pairs).
func benchProfile(b *testing.B) *witch.Profile {
	b.Helper()
	prog, err := witch.Workload("h264ref")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := witch.Run(prog, witch.Options{Tool: witch.DeadStores, Period: 97, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return prof
}

// BenchmarkMerge is the steady-state ingest fold: re-merging a profile
// whose pair streams already exist, which is what a fleet pushing the
// same programs does after the first minute.
func BenchmarkMerge(b *testing.B) {
	prof := benchProfile(b)
	a := agg.New()
	a.Merge(prof)
	b.ReportMetric(float64(len(prof.TopPairs(0))), "pairs/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(prof)
	}
}

// BenchmarkMergeFrom measures the bucket-fold path (retention eviction,
// query-time ring merges): an aggregator-to-aggregator fold where the
// precomputed hashes make re-hashing unnecessary.
func BenchmarkMergeFrom(b *testing.B) {
	prof := benchProfile(b)
	src := agg.New()
	src.Merge(prof)
	dst := agg.NewSized(src.PairCount())
	dst.MergeFrom(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.MergeFrom(src)
	}
}

// BenchmarkSnapshot re-materializes the merged profile — the /v1/profile
// query path.
func BenchmarkSnapshot(b *testing.B) {
	prof := benchProfile(b)
	a := agg.New()
	a.Merge(prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Snapshot(prof.Tool, prof.Program) == nil {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkFoldScoped is a fleet read's fold: 64 partition States of
// 3 tools x 6 programs x 10 pairs each merged into a fresh view,
// whole (all), cut to one tool, or cut to one (tool, program) — what
// the daemon's materialize folds for /v1/top?tool=T[&program=P].
func BenchmarkFoldScoped(b *testing.B) {
	const parts, pairs = 64, 10
	tools := []string{"DeadCraft", "LoadCraft", "SilentCraft"}
	states := make([]*agg.State, parts)
	for p := range states {
		a := agg.New()
		for ti, tool := range tools {
			for prog := 0; prog < 6; prog++ {
				ps := make([]witch.Pair, pairs)
				for i := range ps {
					k := (p + i) % (2 * pairs) // partitions share half their keys
					ps[i] = witch.Pair{
						Src:   fmt.Sprintf("src.c:%d", k),
						Dst:   fmt.Sprintf("dst.c:%d", k),
						Chain: fmt.Sprintf("main -> f%d", k),
						Waste: float64(1+ti) * 1.25 * float64(k+1), Use: 0.5 * float64(i+1),
					}
				}
				a.Merge(witch.NewProfile(witch.Profile{
					Tool: tool, Program: fmt.Sprintf("prog%d", prog), Waste: 3.5, Use: 1.25,
				}, ps))
			}
		}
		states[p] = a.State()
	}
	for _, c := range []struct{ name, tool, program string }{
		{"all", "", ""},
		{"tool", "LoadCraft", ""},
		{"toolProgram", "LoadCraft", "prog3"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				view := agg.New()
				for _, st := range states {
					if c.tool == "" {
						view.MergeState(st)
						continue
					}
					sc := st.Scope(c.tool, c.program)
					view.MergeState(&sc)
				}
			}
		})
	}
}
