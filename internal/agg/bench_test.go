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
// whose pair streams already exist into one store partition, which is
// what a fleet pushing the same programs does after the first minute.
// It includes the partition's amortized buffer compactions.
func BenchmarkMerge(b *testing.B) {
	prof := benchProfile(b)
	var p agg.Partition
	p.Merge(prof)
	p.State()
	b.ReportMetric(float64(len(prof.TopPairs(0))), "pairs/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Merge(prof)
	}
}

// BenchmarkRollupFold measures the retention fold: an expired bucket's
// partition State merged into the rollup's in one linear pass, where
// every key is already in the rollup.
func BenchmarkRollupFold(b *testing.B) {
	prof := benchProfile(b)
	var p agg.Partition
	p.Merge(prof)
	bucket := p.State()
	rollup := agg.Merge(bucket, bucket)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rollup = agg.Merge(rollup, bucket)
	}
}

// BenchmarkSnapshot re-materializes the merged profile — the /v1/profile
// query path.
func BenchmarkSnapshot(b *testing.B) {
	prof := benchProfile(b)
	var p agg.Partition
	p.Merge(prof)
	var v agg.View
	v.Fold(*p.State())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.SnapshotTop(prof.Tool, prof.Program, 0) == nil {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkFoldScoped is a fleet read's fold: 64 partition States of
// 3 tools x 6 programs x 10 pairs each folded into a fresh view,
// whole (all), cut to one tool, or cut to one (tool, program) — what
// the daemon's materialize folds for /v1/top?tool=T[&program=P].
func BenchmarkFoldScoped(b *testing.B) {
	const parts, pairs = 64, 10
	tools := []string{"DeadCraft", "LoadCraft", "SilentCraft"}
	states := make([]*agg.State, parts)
	for p := range states {
		var a agg.Partition
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
				sts := make([]agg.State, len(states))
				for j, st := range states {
					sts[j] = *st
					if c.tool != "" {
						sts[j] = st.Scope(c.tool, c.program)
					}
				}
				var view agg.View
				view.Fold(sts...)
			}
		})
	}
}
