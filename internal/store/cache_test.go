package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/witch"
)

func cacheProfile(program string, n int, seed int64) *witch.Profile {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]witch.Pair, 0, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(1 << 20)
		pairs = append(pairs, witch.Pair{
			Src:   fmt.Sprintf("s%06d", k),
			Dst:   fmt.Sprintf("d%06d", k),
			Chain: fmt.Sprintf("s%06d->d%06d", k, k),
			Waste: float64(rng.Intn(100)), Use: float64(rng.Intn(100)),
		})
	}
	return witch.NewProfile(witch.Profile{
		Program: program, Tool: string(witch.DeadStores), Waste: 1, Use: 1,
	}, pairs)
}

// TestQueryCacheHitsAndEpochInvalidation: repeated exports at one
// epoch are served from cache (same *VersionedExport), every mutation
// class — ingest, fold/eviction, ReplacePartition, snapshot restore —
// invalidates, and the rebuilt export is byte-identical to an uncached
// store fed the same history.
func TestQueryCacheHitsAndEpochInvalidation(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	now := func() time.Time { return clock }
	s := New(Config{Window: time.Minute, Buckets: 3, Now: now})
	oracle := New(Config{Window: time.Minute, Buckets: 3, Now: now, NoCache: true})

	ingestBoth := func(id, program string, seed int64) {
		p := cacheProfile(program, 50, seed)
		s.IngestKeyedAt(id, p, clock)
		oracle.IngestKeyedAt(id, p, clock)
	}
	matchesOracle := func(s *Store, what string) {
		t.Helper()
		if !bytes.Equal(exportGob(t, s.Export(0)), exportGob(t, oracle.Export(0))) {
			t.Fatalf("%s: export diverges from the uncached oracle", what)
		}
	}

	ingestBoth("p1", "prog-a", 1)
	ingestBoth("p2", "prog-b", 2)

	v1 := s.ExportVersioned(0)
	if v2 := s.ExportVersioned(0); v2 != v1 {
		t.Fatal("repeat ExportVersioned(0) at one epoch should return the cached export")
	}
	cs := s.CacheStats()
	if cs.ExportHits == 0 {
		t.Fatalf("no export cache hit recorded: %+v", cs)
	}
	matchesOracle(s, "cached export")

	// Ingest invalidates.
	e0 := s.Epoch()
	ingestBoth("p1", "prog-a", 3)
	if s.Epoch() == e0 {
		t.Fatal("ingest did not bump the epoch")
	}
	if v3 := s.ExportVersioned(0); v3 == v1 {
		t.Fatal("ExportVersioned after ingest returned the stale cached export")
	}
	matchesOracle(s, "post-ingest")

	// Eviction (fold) invalidates: advance a full ring revolution (3
	// buckets) so the next ingest reuses the original slot and folds
	// its expired bucket into the rollup.
	v4 := s.ExportVersioned(0)
	clock = clock.Add(3 * time.Minute)
	ingestBoth("p2", "prog-b", 4)
	if s.Stats().EvictedBuckets == 0 {
		t.Fatal("expected a folded bucket after jumping past the ring")
	}
	if v5 := s.ExportVersioned(0); v5 == v4 {
		t.Fatal("ExportVersioned after fold returned the stale cached export")
	}
	matchesOracle(s, "post-fold")

	// ReplacePartition invalidates, and the replacement is visible.
	vr := s.ExportVersioned(0)
	img := s.PartitionImage("p1")
	s.ReplacePartition("p1", nil)
	if s.ExportVersioned(0) == vr {
		t.Fatal("ExportVersioned after partition removal returned the stale cached export")
	}
	s.ReplacePartition("p1", img)
	matchesOracle(s, "remove+reinstall round trip")

	// Snapshot restore: fresh store, fresh generation, same bytes.
	var snap bytes.Buffer
	if err := s.Snapshot(&snap, 7, nil); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Window: time.Minute, Buckets: 3, Now: now})
	genBefore := s2.gen.Load()
	if _, _, err := s2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if s2.gen.Load() == genBefore {
		t.Fatal("Restore did not regenerate the store generation")
	}
	matchesOracle(s2, "restored store")
	if got, want := s2.Tools(), view(oracle, 0).Tools(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored tool set %v, want %v", got, want)
	}
}

// TestWindowedCacheFollowsClock: a windowed export's cache entry is
// valid only within one bucket quantum — moving the clock across a
// bucket boundary must invalidate without any mutation.
func TestWindowedCacheFollowsClock(t *testing.T) {
	// Chosen so now-window starts exactly on a bucket boundary: the
	// +10s step below stays inside one quantum, the +60s step crosses.
	clock := time.Unix(1700000010, 0)
	now := func() time.Time { return clock }
	s := New(Config{Window: time.Minute, Buckets: 5, Now: now})
	oracle := New(Config{Window: time.Minute, Buckets: 5, Now: now, NoCache: true})
	p := cacheProfile("prog-a", 20, 1)
	s.IngestKeyedAt("p1", p, clock)
	oracle.IngestKeyedAt("p1", p, clock)

	w := 90 * time.Second
	v1 := s.ExportVersioned(w)
	clock = clock.Add(10 * time.Second) // same quantum
	if s.ExportVersioned(w) != v1 {
		t.Fatal("clock moved within a bucket quantum; cache should have held")
	}
	clock = clock.Add(time.Minute) // crosses a boundary
	if s.ExportVersioned(w) == v1 {
		t.Fatal("clock crossed a bucket boundary; cache should have invalidated")
	}
	if !bytes.Equal(exportGob(t, s.Export(w)), exportGob(t, oracle.Export(w))) {
		t.Fatal("windowed export diverges from the uncached oracle")
	}
	// The ingested bucket ages out of the window entirely.
	clock = clock.Add(5 * time.Minute)
	if exp := s.Export(w); len(exp.Parts) != 0 {
		t.Fatalf("aged-out window still exports %d partitions", len(exp.Parts))
	}
	if !bytes.Equal(exportGob(t, s.Export(w)), exportGob(t, oracle.Export(w))) {
		t.Fatal("aged-out windowed export diverges from the uncached oracle")
	}
}

// TestToolsMaintained: the maintained tool set tracks ingest and
// removal without folding all-time state.
func TestToolsMaintained(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	s := New(Config{Window: time.Minute, Buckets: 3, Now: func() time.Time { return clock }})
	if got := s.Tools(); len(got) != 0 {
		t.Fatalf("fresh store lists tools %v", got)
	}
	p := cacheProfile("prog-a", 5, 1)
	s.IngestKeyedAt("p1", p, clock)
	if got := s.Tools(); len(got) != 1 || got[0] != p.Tool {
		t.Fatalf("tools = %v, want [%s]", got, p.Tool)
	}
	// Removing the only partition holding the tool drops it.
	s.ReplacePartition("p1", nil)
	if got := s.Tools(); len(got) != 0 {
		t.Fatalf("tools after removing the only holder = %v, want none", got)
	}
}

// TestStoreCacheRace: concurrent ingest, windowed + all-time queries,
// partition queries, exports, and clock movement (driving folds) must
// be data-race free and never panic. Run under -race.
func TestStoreCacheRace(t *testing.T) {
	var clockMu sync.Mutex
	clock := time.Unix(1700000000, 0)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	s := New(Config{Window: 10 * time.Millisecond, Buckets: 2, Now: now})
	profs := []*witch.Profile{
		cacheProfile("prog-a", 30, 1),
		cacheProfile("prog-b", 30, 2),
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("p%d", g%2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.IngestKeyedAt(id, profs[g%2], now())
				if i%8 == 0 {
					// Drive the clock so ring slots recycle and folds run
					// concurrently with the queries below.
					clockMu.Lock()
					clock = clock.Add(7 * time.Millisecond)
					clockMu.Unlock()
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g % 4 {
				case 0:
					view(s, 0).PairCount()
					s.Health()
				case 1:
					view(s, 15*time.Millisecond).PairCount()
				case 2:
					partition(s, "p0").PairCount()
				case 3:
					s.ExportVersioned(0)
					s.Stats()
					s.Tools()
				}
			}
		}(g)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
