package store

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/witch"
)

// BenchmarkRestore times Store.Restore of a snapshot of 16 pushers ×
// 10 buckets × 250 pairs. unique gives every pair its own source,
// destination and chain strings; recurring draws them from 250
// locations shared by every pusher and bucket, as a fleet running the
// same programs does.
func BenchmarkRestore(b *testing.B) {
	const pushers, buckets, pairs = 16, 10, 250
	for _, bc := range []struct {
		name   string
		unique bool
	}{{"unique", true}, {"recurring", false}} {
		b.Run(bc.name, func(b *testing.B) {
			clock := time.Unix(1700000000, 0)
			s := New(Config{Window: time.Minute, Buckets: 60, Now: func() time.Time { return clock }})
			for k := 0; k < buckets; k++ {
				at := clock.Add(time.Duration(k) * time.Minute)
				for p := 0; p < pushers; p++ {
					ps := make([]witch.Pair, pairs)
					for i := range ps {
						loc := fmt.Sprintf("file%02d.c:func%03d", i%17, i)
						if bc.unique {
							loc = fmt.Sprintf("file%02d.c:p%02db%02d:%03d", i%17, p, k, i)
						}
						ps[i] = witch.Pair{Src: loc + ":src", Dst: loc + ":dst", Chain: loc + ":chain", Waste: float64(i), Use: float64(i + 1), SrcLine: i, DstLine: i + 1}
					}
					s.IngestKeyedAt(fmt.Sprintf("pusher-%02d", p), witch.NewProfile(witch.Profile{
						Program: fmt.Sprintf("prog-%d", p%4), Tool: string(witch.DeadStores), Waste: 1, Use: 1,
					}, ps), at)
				}
			}
			var snap bytes.Buffer
			if err := s.Snapshot(&snap, 1, nil); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(snap.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := New(Config{Window: time.Minute, Buckets: 60, Now: func() time.Time { return clock.Add(10 * time.Minute) }})
				if _, _, err := r.Restore(bytes.NewReader(snap.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
