package store

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/witch"
)

// view folds a window's export into one view the way witchd reads a
// node: partitions in id order, the unkeyed one ("") first.
func view(s *Store, window time.Duration) *agg.View {
	exp := s.Export(window)
	var v agg.View
	for _, id := range sortedIDs(exp) {
		v.Fold(*exp.Parts[id])
	}
	return &v
}

// sortedIDs lists an export's partition ids in fold order.
func sortedIDs(exp *Export) []string {
	ids := make([]string, 0, len(exp.Parts))
	for id := range exp.Parts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// partition is pusher id's all-time partition, read from the export
// (empty when the store holds none).
func partition(s *Store, id string) *agg.View {
	var v agg.View
	if st := s.Export(0).Parts[id]; st != nil {
		v.Fold(*st)
	}
	return &v
}

// profiles counts the profiles a window's export holds.
func profiles(s *Store, window time.Duration) uint64 {
	var n uint64
	for _, st := range s.Export(window).Parts {
		for _, m := range st.Metas {
			n += m.Profiles
		}
	}
	return n
}

// exportTools lists the tools the all-time export holds, sorted.
func exportTools(s *Store) []string {
	var out []string
	for _, st := range s.Export(0).Parts {
		for _, m := range st.Metas {
			if !slices.Contains(out, m.Tool) {
				out = append(out, m.Tool)
			}
		}
	}
	sort.Strings(out)
	return out
}

// partitions lists the pusher ids holding data anywhere in the store,
// sorted, the anonymous partition left out.
func partitions(s *Store) []string {
	ids := sortedIDs(s.Export(0))
	if len(ids) > 0 && ids[0] == "" {
		ids = ids[1:]
	}
	return ids
}

// fakeClock is an injectable, race-safe clock.
type fakeClock struct {
	ns atomic.Int64
}

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *fakeClock) now() time.Time                    { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) time.Time { return time.Unix(0, c.ns.Add(int64(d))) }

func synth(program string, waste float64) *witch.Profile {
	return witch.NewProfile(witch.Profile{
		Program:    program,
		Tool:       "dead",
		Redundancy: waste / (waste + 8),
		Waste:      waste,
		Use:        8,
	}, []witch.Pair{{
		Src: program + ":f:1", Dst: program + ":g:2",
		Chain: "main -> f -> g", Waste: waste, Use: 8,
	}})
}

// TestRetentionEvictsAndRollsUp drives ingest across many windows and
// checks that (a) live memory stays bounded at the ring size while
// evicted buckets fold into the rollup, and (b) an unbounded query
// still sees every profile ever ingested — retention moves data, it
// never loses it.
func TestRetentionEvictsAndRollsUp(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})

	const windows = 12
	for i := 0; i < windows; i++ {
		// A distinct program per window keeps pair streams distinct, so
		// live pair count tracks live buckets.
		s.Ingest(synth(fmt.Sprintf("prog-%02d", i), 16))
		clk.advance(time.Minute)
	}

	st := s.Stats()
	if st.LiveBuckets > 4 {
		t.Fatalf("live buckets %d exceed ring size 4", st.LiveBuckets)
	}
	if st.EvictedBuckets != windows-4 {
		t.Fatalf("evicted %d buckets, want %d", st.EvictedBuckets, windows-4)
	}
	if st.LivePairs > 4 {
		t.Fatalf("live pairs %d not bounded by ring", st.LivePairs)
	}
	if st.RollupPairs != windows-4 {
		t.Fatalf("rollup holds %d pairs, want %d", st.RollupPairs, windows-4)
	}
	if st.Ingested != windows {
		t.Fatalf("ingested %d, want %d", st.Ingested, windows)
	}

	all := view(s, 0)
	if got := profiles(s, 0); got != windows {
		t.Fatalf("unbounded query sees %d profiles, want %d", got, windows)
	}
	snap := all.SnapshotTop("dead", "", 0)
	if snap.Waste != 16*windows {
		t.Fatalf("rollup lost waste: %g, want %d", snap.Waste, 16*windows)
	}
}

// TestQueryWindowSelectsBuckets: a trailing window only sees the
// buckets overlapping it.
func TestQueryWindowSelectsBuckets(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 10, Now: clk.now})

	s.Ingest(synth("old", 1))
	clk.advance(5 * time.Minute)
	s.Ingest(synth("new", 2))

	recent := view(s, 2*time.Minute).SnapshotTop("dead", "", 0)
	if recent == nil || recent.Waste != 2 {
		t.Fatalf("trailing window should see only the new profile, got %+v", recent)
	}
	both := view(s, 10*time.Minute).SnapshotTop("dead", "", 0)
	if both.Waste != 3 {
		t.Fatalf("wide window should see both, got waste %g", both.Waste)
	}
	if view(s, 2*time.Minute).SnapshotTop("load", "", 0) != nil {
		t.Fatal("unknown tool should be nil")
	}
}

// TestSameWindowMergesInPlace: profiles landing in one window share a
// bucket and merge there.
func TestSameWindowMergesInPlace(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	for i := 0; i < 10; i++ {
		s.Ingest(synth("p", 4))
	}
	st := s.Stats()
	if st.LiveBuckets != 1 || st.EvictedBuckets != 0 {
		t.Fatalf("stats = %+v, want one live bucket, no eviction", st)
	}
	if got := view(s, 0).SnapshotTop("dead", "", 0).Waste; got != 40 {
		t.Fatalf("in-bucket merge waste %g, want 40", got)
	}
}

// TestConcurrentIngestQueryEvict is the store's half of the race
// satellite: 8 ingesters race a moving clock (forcing evictions), while
// queries and stats readers run throughout. Afterwards every ingested
// profile must be accounted for across live buckets + rollup.
func TestConcurrentIngestQueryEvict(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 3, Now: clk.now})

	const (
		ingesters = 8
		perG      = 60
	)
	var wg sync.WaitGroup
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Ingest(synth(fmt.Sprintf("prog-%d", g), 2))
				if i%10 == 9 {
					clk.advance(20 * time.Second)
				}
			}
		}(g)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if snap := view(s, 2*time.Minute).SnapshotTop("dead", "", 0); snap != nil {
					_ = snap.TopPairs(3)
				}
				_ = s.Stats()
			}
		}()
	}
	wg.Wait()

	const total = ingesters * perG
	if got := profiles(s, 0); got != total {
		t.Fatalf("lost profiles across eviction: %d, want %d", got, total)
	}
	if got := view(s, 0).SnapshotTop("dead", "", 0).Waste; got != 2*total {
		t.Fatalf("lost waste across eviction: %g, want %d", got, 2*total)
	}
	st := s.Stats()
	if st.EvictedBuckets == 0 {
		t.Fatal("expected evictions under the moving clock")
	}
	if st.LiveBuckets > 3 {
		t.Fatalf("live buckets %d exceed ring size", st.LiveBuckets)
	}
}

// TestSnapshotRestoreRoundTrip: snapshot → restore reproduces the full
// retention state — ring layout, rollup, counters, and the caller's
// anchor — so a recovered daemon answers queries identically.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	const windows = 9 // > ring size: rollup is populated too
	for i := 0; i < windows; i++ {
		s.Ingest(synth(fmt.Sprintf("prog-%02d", i), 16))
		clk.advance(time.Minute)
	}

	var buf bytes.Buffer
	if err := s.Snapshot(&buf, 42, []byte("extra-blob")); err != nil {
		t.Fatal(err)
	}
	r := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	anchor, extra, err := r.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if anchor != 42 {
		t.Fatalf("anchor = %d, want 42", anchor)
	}
	if string(extra) != "extra-blob" {
		t.Fatalf("extra = %q, want %q", extra, "extra-blob")
	}

	if got, want := r.Stats(), s.Stats(); got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	for _, window := range []time.Duration{0, 2 * time.Minute, 10 * time.Minute} {
		a := view(s, window).SnapshotTop("dead", "", 0)
		b := view(r, window).SnapshotTop("dead", "", 0)
		if (a == nil) != (b == nil) {
			t.Fatalf("window %v: presence drifted", window)
		}
		if a == nil {
			continue
		}
		var wa, wb bytes.Buffer
		if err := a.WriteJSON(&wa); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteJSON(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Fatalf("window %v: restored profile drifted:\n%s\nvs\n%s", window, wb.String(), wa.String())
		}
	}
}

// TestSnapshotRestoreGeometryChange: restoring into a ring with a
// different window width folds every bucket into the rollup — windowed
// placement is lost, but the all-time view stays exact.
func TestSnapshotRestoreGeometryChange(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	const n = 6
	for i := 0; i < n; i++ {
		s.Ingest(synth(fmt.Sprintf("prog-%d", i), 16))
		clk.advance(time.Minute)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}

	r := New(Config{Window: time.Hour, Buckets: 2, Now: clk.now})
	if _, _, err := r.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := profiles(r, 0); got != n {
		t.Fatalf("all-time view lost profiles under reconfiguration: %d, want %d", got, n)
	}
	if got := view(r, 0).SnapshotTop("dead", "", 0).Waste; got != 16*n {
		t.Fatalf("all-time waste %g, want %d", got, 16*n)
	}
}

// TestRestoreRejectsBadSnapshots: garbage and version-mismatched
// snapshots error out (the recovery layer falls back to older ones)
// instead of restoring nonsense.
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	s := New(Config{})
	if _, _, err := s.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage restored without error")
	}
	if _, _, err := s.Restore(bytes.NewReader(sealSnapshot(snapshotVersion+1, nil))); err == nil {
		t.Fatal("future snapshot version restored without error")
	}
}

// TestRestoreRejectsMisorderedState: a snapshot holding a State that
// breaks the agg.State order contract — misordered, or with a key
// twice, in a bucket or the rollup — errors out, so recovery falls back
// to the next snapshot, and the store keeps what it held. Restore
// adopts snapshot States as sorted bases, and the linear merges that
// later fold them would silently mis-merge an unchecked one.
func TestRestoreRejectsMisorderedState(t *testing.T) {
	src := New(Config{})
	src.IngestAt(synth("a", 1), time.Unix(1700000000, 0))
	src.IngestAt(synth("b", 2), time.Unix(1700000000, 0))
	good := src.Export(0).Parts[""]
	if len(good.Pairs) != 2 || len(good.Metas) != 2 {
		t.Fatalf("test state has %d pairs, %d metas; want 2, 2", len(good.Pairs), len(good.Metas))
	}
	swapped := &agg.State{Metas: good.Metas, Pairs: []agg.PairState{good.Pairs[1], good.Pairs[0]}}
	twice := &agg.State{Metas: []agg.MetaState{good.Metas[0], good.Metas[0]}, Pairs: good.Pairs[:1]}
	start := time.Unix(1700000000, 0).UnixNano()
	bucket := func(st *agg.State) *PartitionImage {
		return &PartitionImage{WindowNanos: int64(time.Minute), Buckets: []PartitionBucket{{StartUnixNano: start, State: st}}}
	}
	for name, imgs := range map[string]map[string]*PartitionImage{
		"misordered bucket":          {"": bucket(swapped)},
		"duplicate-key keyed bucket": {"p": bucket(twice)},
		"misordered rollup":          {"": {WindowNanos: int64(time.Minute), Rollup: swapped}},
		"duplicate-key keyed rollup": {"p": {WindowNanos: int64(time.Minute), Rollup: twice}},
	} {
		s := New(Config{})
		s.IngestAt(synth("kept", 4), time.Unix(1700000000, 0))
		if _, _, err := s.Restore(bytes.NewReader(sealSnapshot(snapshotVersion, imgs))); err == nil {
			t.Errorf("%s: restored without error", name)
		}
		if got := view(s, 0).SnapshotTop("dead", "", 0); got == nil || got.Program != "kept" {
			t.Errorf("%s: a rejected restore changed the store", name)
		}
	}
}

// TestSnapshotRacesEviction: snapshots run concurrently with ingest
// that is continuously displacing and folding buckets. The exactly-once
// guarantee under test: a bucket mid-fold appears in a snapshot on
// exactly one side of the rollup boundary. Each pair is ingested once
// with waste 16, so any double-count shows up as a pair whose waste
// exceeds 16 in some snapshot, and any loss shows up in the final one.
func TestSnapshotRacesEviction(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{Window: time.Minute, Buckets: 2, Now: clk.now}
	s := New(cfg)

	const n = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.Ingest(synth(fmt.Sprintf("prog-%03d", i), 16))
			// Every other ingest starts a new window, displacing a bucket
			// and racing its fold against the snapshotter.
			clk.advance(31 * time.Second)
		}
	}()

	var snaps [][]byte
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		var buf bytes.Buffer
		if err := s.Snapshot(&buf, uint64(len(snaps)), nil); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}
	// One more after ingest quiesced: this one must be exact.
	var final bytes.Buffer
	if err := s.Snapshot(&final, uint64(len(snaps)), nil); err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, final.Bytes())

	for i, snap := range snaps {
		r := New(cfg)
		if _, _, err := r.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		prof := view(r, 0).SnapshotTop("dead", "", 0)
		if prof == nil {
			continue // taken before the first merge landed
		}
		for _, pair := range prof.TopPairs(0) {
			if pair.Waste > 16 {
				t.Fatalf("snapshot %d: pair %s has waste %g > 16: bucket counted on both sides of the rollup", i, pair.Src, pair.Waste)
			}
		}
	}

	r := New(cfg)
	if _, _, err := r.Restore(bytes.NewReader(final.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := profiles(r, 0); got != n {
		t.Fatalf("final snapshot accounts for %d profiles, want %d", got, n)
	}
	if got := len(view(r, 0).SnapshotTop("dead", "", 0).TopPairs(0)); got != n {
		t.Fatalf("final snapshot has %d pairs, want %d", got, n)
	}
	if st := r.Stats(); st.EvictedBuckets == 0 {
		t.Fatal("race never exercised eviction")
	}
}

// TestSnapshotChecksumDetectsCorruption: every snapshot carries a
// CRC-32C trailer; a single flipped byte anywhere in the payload fails
// the restore loudly (the recovery layer then falls back to an older
// snapshot), and so does a snapshot without its trailer.
func TestSnapshotChecksumDetectsCorruption(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	for i := 0; i < 6; i++ {
		s.Ingest(synth(fmt.Sprintf("prog-%d", i), 16))
		clk.advance(time.Minute)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf, 7, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Pristine bytes restore.
	if _, _, err := New(Config{}).Restore(bytes.NewReader(snap)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Bit rot anywhere in the body is caught by the trailer.
	for _, pos := range []int{8, len(snap) / 2, len(snap) - 12} {
		bad := append([]byte(nil), snap...)
		bad[pos] ^= 0x40
		if _, _, err := New(Config{}).Restore(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d restored silently", pos)
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corruption at byte %d failed for the wrong reason: %v", pos, err)
		}
	}
	// A corrupt trailer itself also fails closed.
	bad := append([]byte(nil), snap...)
	bad[len(bad)-6] ^= 0x01
	if _, _, err := New(Config{}).Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt trailer restored silently")
	}
	// A snapshot without its trailer is rejected, and the store keeps
	// what it held.
	r := New(Config{Window: time.Minute, Buckets: 4, Now: clk.now})
	r.Ingest(synth("kept", 4))
	if _, _, err := r.Restore(bytes.NewReader(snap[:len(snap)-8])); err == nil {
		t.Fatal("trailer-less snapshot restored")
	}
	if got := profiles(r, 0); got != 1 {
		t.Fatalf("a rejected trailer-less restore changed the store: %d profiles", got)
	}
}

// TestKeyedPartitionsRoundTrip: keyed ingest isolates per-pusher
// partitions inside the shared retention ring, exports carry them
// separately from the unkeyed aggregate, and a PartitionImage replaces
// a partition on another store without disturbing its neighbours.
func TestKeyedPartitionsRoundTrip(t *testing.T) {
	clk := newFakeClock()
	cfg := Config{Window: time.Minute, Buckets: 4, Now: clk.now}
	s := New(cfg)
	s.IngestKeyedAt("alice", synth("prog-a", 10), clk.now())
	s.IngestKeyedAt("bob", synth("prog-b", 20), clk.now())
	s.Ingest(synth("prog-anon", 30))

	if got := partitions(s); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("partitions = %v, want [alice bob]", got)
	}
	if got := partition(s, "alice").SnapshotTop("dead", "", 0).Waste; got != 10 {
		t.Fatalf("alice partition waste %g, want 10 (isolation broken)", got)
	}
	if got := view(s, 0).SnapshotTop("dead", "", 0).Waste; got != 60 {
		t.Fatalf("merged query waste %g, want 60", got)
	}

	exp := s.Export(0)
	if exp.Parts[""] == nil || len(exp.Parts) != 3 {
		t.Fatalf("export shape: unkeyed=%v parts=%d", exp.Parts[""] != nil, len(exp.Parts))
	}

	// Ship alice's image to a second store holding its own data.
	img := s.PartitionImage("alice")
	if img == nil || len(img.Buckets) == 0 {
		t.Fatalf("partition image empty: %+v", img)
	}
	r := New(cfg)
	r.IngestKeyedAt("alice", synth("prog-stale", 99), clk.now())
	r.IngestKeyedAt("carol", synth("prog-c", 5), clk.now())
	r.ReplacePartition("alice", img)
	if got := partition(r, "alice").SnapshotTop("dead", "", 0).Waste; got != 10 {
		t.Fatalf("replaced partition waste %g, want 10 (stale copy survived?)", got)
	}
	if partition(r, "alice").SnapshotTop("dead", "", 0).Program == "prog-stale" {
		t.Fatal("replace merged instead of replacing")
	}
	if got := partition(r, "carol").SnapshotTop("dead", "", 0).Waste; got != 5 {
		t.Fatalf("neighbour partition disturbed: %g", got)
	}

	// Partitions survive the snapshot codec.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}
	s2 := New(cfg)
	if _, _, err := s2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := partitions(s2); len(got) != 2 {
		t.Fatalf("partitions lost in snapshot round trip: %v", got)
	}
	if got := partition(s2, "bob").SnapshotTop("dead", "", 0).Waste; got != 20 {
		t.Fatalf("restored bob partition waste %g, want 20", got)
	}
	if got := view(s2, 0).SnapshotTop("dead", "", 0).Waste; got != 60 {
		t.Fatalf("restored merged waste %g, want 60", got)
	}
}
