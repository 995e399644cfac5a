package store

import (
	"fmt"
	"testing"
	"time"

	"repro/witch"
)

// BenchmarkExportVersioned times one export miss over a fleet-shaped
// store: 100 pusher partitions of 40 pairs each (4k pairs). Before
// each timed export, untimed ingest re-merges the same pairs into one
// partition (oneChanged, the steady state of a trickle-written fleet)
// or into every partition (allChanged, the cost of a full rebuild).
func BenchmarkExportVersioned(b *testing.B) {
	const parts, pairs = 100, 40
	for _, bc := range []struct {
		name    string
		mutated int
	}{{"allChanged", parts}, {"oneChanged", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			clock := time.Unix(1700000000, 0)
			s := New(Config{Window: time.Minute, Buckets: 60, Now: func() time.Time { return clock }})
			ids := make([]string, parts)
			profs := make([]*witch.Profile, parts)
			for i := range ids {
				ids[i] = fmt.Sprintf("pusher-%03d", i)
				profs[i] = cacheProfile(fmt.Sprintf("prog-%d", i%7), pairs, int64(i))
				s.IngestKeyedAt(ids[i], profs[i], clock)
			}
			s.ExportVersioned(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := 0; k < bc.mutated; k++ {
					j := (i + k) % parts
					s.IngestKeyedAt(ids[j], profs[j], clock)
				}
				b.StartTimer()
				s.ExportVersioned(0)
			}
		})
	}
}
