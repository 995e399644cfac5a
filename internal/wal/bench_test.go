package wal

import (
	"sync/atomic"
	"testing"
	"time"
)

// benchPayload approximates one journaled ingest batch envelope
// (timestamp header + a small pushed profile).
var benchPayload = make([]byte, 2048)

func init() {
	for i := range benchPayload {
		benchPayload[i] = byte(i)
	}
}

// BenchmarkAppendSync is the per-append-fsync baseline: one write + one
// fsync per record, serialized under the journal lock.
func BenchmarkAppendSync(b *testing.B) {
	j, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendGroup measures the group committer under parallel
// load — the shape witchd's ingest handlers produce. Throughput here
// versus BenchmarkAppendSync is the fsync amortization win. Zero
// MaxCommitDelay is the self-tuning sweet spot: the previous gang's
// fsync is the batching window.
func BenchmarkAppendGroup(b *testing.B) {
	j, err := Open(b.TempDir(), Options{GroupCommit: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.SetBytes(int64(len(benchPayload)))
	b.SetParallelism(8) // 8 × GOMAXPROCS concurrent appenders
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := j.Append(benchPayload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendGroupLinger turns on a half-millisecond linger so the
// committer's gather — not just the previous gang's fsync back-pressure
// — forms the gangs, and counts its producers in Options.Inflight the
// way witchd counts batches on their way to the journal, so a gang
// stops lingering once it holds them all. This is the operating point a
// nonzero -commit-delay configures.
func BenchmarkAppendGroupLinger(b *testing.B) {
	var inflight atomic.Int64
	j, err := Open(b.TempDir(), Options{GroupCommit: true, MaxCommitDelay: 500 * time.Microsecond,
		Inflight: func() int { return int(inflight.Load()) }})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.SetBytes(int64(len(benchPayload)))
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			inflight.Add(1)
			_, err := j.Append(benchPayload)
			inflight.Add(-1)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendNoSync isolates the non-fsync cost of the append path
// (framing, CRC, write syscall, bookkeeping).
func BenchmarkAppendNoSync(b *testing.B) {
	j, err := Open(b.TempDir(), Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}
