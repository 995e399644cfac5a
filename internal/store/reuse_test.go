package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/wire"
)

// exportBytes is the canonical byte form of an export: the agg codec's
// partition map, in id order.
func exportBytes(e *Export) []byte {
	enc := agg.NewEncoder(nil)
	wire.EncodeMap(enc, e.Parts, func(st *agg.State) { agg.EncodeState(enc, st) })
	return enc.Bytes()
}

// deltaBaseline is what a scatter coordinator holds for one peer and
// window: the reconstructed export and the vector it was diffed at.
type deltaBaseline struct {
	exp *Export
	ver ExportVersion
}

// apply patches the baseline with d the way the cluster coordinator
// does: a full ship replaces it, a delta overwrites the changed
// partitions and deletes the tombstoned ones.
func (b *deltaBaseline) apply(d *ExportDelta) {
	next := &Export{Parts: make(map[string]*agg.State)}
	if !d.Full && b.exp != nil {
		for id, st := range b.exp.Parts {
			next.Parts[id] = st
		}
	}
	for id, st := range d.Export.Parts {
		next.Parts[id] = st
	}
	for _, id := range d.Tombstones {
		delete(next.Parts, id)
	}
	b.exp, b.ver = next, d.Ver
}

// TestExportReuseMatchesNoCache: a store whose export misses reuse the
// unchanged partitions of the previous export stays byte-identical to
// a NoCache twin that rebuilds everything, under seeded interleavings
// of keyed and unkeyed ingest, bucket crossings, ring wrap and fold,
// partition replacement (emptied to nothing, too) and restore — both
// for the full export and for a delta applied to the last baseline,
// at all-time and windowed reads.
func TestExportReuseMatchesNoCache(t *testing.T) {
	windows := []time.Duration{0, 90 * time.Second, 3 * time.Minute}
	ids := []string{"", "p0", "p1", "p2", "p3", "p4"}
	var reused uint64
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		cfg := Config{Window: time.Minute, Buckets: 4, Now: clk.now}
		s := New(cfg)
		cfg.NoCache = true
		twin := New(cfg)
		base := make(map[time.Duration]*deltaBaseline)
		for _, w := range windows {
			base[w] = &deltaBaseline{}
		}

		for op := 0; op < 120; op++ {
			var what string
			switch r := rng.Intn(100); {
			case r < 55:
				id := ids[rng.Intn(len(ids))]
				p := cacheProfile(fmt.Sprintf("prog-%d", rng.Intn(3)), 1+rng.Intn(8), rng.Int63())
				now := clk.now()
				s.IngestKeyedAt(id, p, now)
				twin.IngestKeyedAt(id, p, now)
				what = "ingest " + id
			case r < 72:
				clk.advance(time.Duration(1+rng.Intn(20)) * time.Second)
				what = "tick"
			case r < 84:
				// Whole buckets: past the 4-bucket ring, the next ingest
				// into a reused slot folds the expired bucket.
				clk.advance(time.Duration(1+rng.Intn(6)) * time.Minute)
				what = "cross buckets"
			case r < 90:
				id := ids[1+rng.Intn(len(ids)-1)]
				s.ReplacePartition(id, nil)
				twin.ReplacePartition(id, nil)
				what = "empty " + id
			case r < 96:
				id, src := ids[1+rng.Intn(len(ids)-1)], ids[1+rng.Intn(len(ids)-1)]
				s.ReplacePartition(id, s.PartitionImage(src))
				twin.ReplacePartition(id, twin.PartitionImage(src))
				what = "replace " + id + " from " + src
			default:
				for _, st := range []*Store{s, twin} {
					var snap bytes.Buffer
					if err := st.Snapshot(&snap, 0, nil); err != nil {
						t.Fatal(err)
					}
					if _, _, err := st.Restore(&snap); err != nil {
						t.Fatal(err)
					}
				}
				what = "restore"
			}

			for _, w := range windows {
				want := exportBytes(twin.Export(w))
				if got := exportBytes(s.Export(w)); !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d (%s), window %v: export differs from the NoCache twin", seed, op, what, w)
				}
				b := base[w]
				b.apply(s.ExportDelta(w, b.ver))
				if got := exportBytes(b.exp); !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d (%s), window %v: delta-patched baseline differs from the NoCache twin", seed, op, what, w)
				}
			}
		}
		reused += s.CacheStats().ExportPartsReused
		if cs := twin.CacheStats(); cs.ExportPartsReused != 0 {
			t.Fatalf("NoCache twin reused %d partitions", cs.ExportPartsReused)
		}
	}
	if reused == 0 {
		t.Fatal("no export miss reused a partition: the reuse path went unexercised")
	}
}

// TestExportReuseRebuildsOnlyChanged: after one keyed ingest, the next
// export miss rebuilds exactly that partition and reuses the rest, the
// unkeyed one included; a clock step into a new bucket quantum
// rebuilds everything.
func TestExportReuseRebuildsOnlyChanged(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	for _, id := range []string{"", "p0", "p1", "p2", "p3"} {
		s.IngestKeyedAt(id, cacheProfile("prog", 10, int64(len(id))), clk.now())
	}
	first := s.Export(0)
	s.IngestKeyedAt("p2", cacheProfile("prog", 10, 9), clk.now())
	before := s.CacheStats()
	second := s.Export(0)
	cs := s.CacheStats()
	if got := cs.ExportPartsRebuilt - before.ExportPartsRebuilt; got != 1 {
		t.Fatalf("rebuilt %d partitions after one keyed ingest, want 1", got)
	}
	if got := cs.ExportPartsReused - before.ExportPartsReused; got != 4 {
		t.Fatalf("reused %d partitions after one keyed ingest, want 4", got)
	}
	if second.Parts[""] != first.Parts[""] || second.Parts["p0"] != first.Parts["p0"] {
		t.Fatal("unchanged partitions were not shared with the previous export")
	}
	if second.Parts["p2"] == first.Parts["p2"] {
		t.Fatal("the ingested partition was served from the previous export")
	}

	w := 2 * time.Minute
	s.Export(w)
	clk.advance(time.Minute)
	before = s.CacheStats()
	s.Export(w)
	if cs := s.CacheStats(); cs.ExportPartsReused != before.ExportPartsReused {
		t.Fatal("an export in a new bucket quantum reused the previous quantum's partitions")
	}
}

// TestExportReuseRace: ingest racing ExportVersioned at all-time and
// windowed reads, with the clock crossing bucket boundaries (but not
// wrapping the ring), must be race-free, and at quiescence the
// reusing store's export — and a delta patched onto a reader's last
// baseline — must equal a NoCache twin fed the same ingests. Run under
// -race.
func TestExportReuseRace(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{Window: time.Minute, Buckets: 16, Now: clk.now}
	s := New(cfg)
	cfg.NoCache = true
	twin := New(cfg)
	windows := []time.Duration{0, 150 * time.Second}

	type ingest struct {
		id  string
		at  time.Time
		seq int64
	}
	ids := []string{"", "p0", "p1", "p2"}
	logs := make([][]ingest, len(ids))
	var wg sync.WaitGroup
	for g, id := range ids {
		wg.Add(1)
		go func(g int, id string) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if g == 0 && i%10 == 9 {
					clk.advance(time.Minute)
				}
				seq := int64(g*1000 + i)
				at := clk.now()
				s.IngestKeyedAt(id, cacheProfile("prog", 5, seq), at)
				logs[g] = append(logs[g], ingest{id, at, seq})
			}
		}(g, id)
	}
	bases := make([]*deltaBaseline, len(windows))
	done := make(chan struct{})
	var rd sync.WaitGroup
	for i, w := range windows {
		bases[i] = &deltaBaseline{}
		rd.Add(1)
		go func(b *deltaBaseline, w time.Duration) {
			defer rd.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s.ExportVersioned(w)
				b.apply(s.ExportDelta(w, b.ver))
			}
		}(bases[i], w)
	}
	wg.Wait()
	close(done)
	rd.Wait()

	for _, log := range logs {
		for _, in := range log {
			twin.IngestKeyedAt(in.id, cacheProfile("prog", 5, in.seq), in.at)
		}
	}
	for i, w := range windows {
		want := exportBytes(twin.Export(w))
		if got := exportBytes(s.Export(w)); !bytes.Equal(got, want) {
			t.Fatalf("window %v: export at quiescence differs from the NoCache twin", w)
		}
		b := bases[i]
		b.apply(s.ExportDelta(w, b.ver))
		if got := exportBytes(b.exp); !bytes.Equal(got, want) {
			t.Fatalf("window %v: delta-patched baseline at quiescence differs from the NoCache twin", w)
		}
	}
}
