package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/store"
	"repro/witch"
)

func deltaProfile(rng *rand.Rand, program string) *witch.Profile {
	n := 1 + rng.Intn(20)
	pairs := make([]witch.Pair, 0, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(200)
		pairs = append(pairs, witch.Pair{
			Src:   fmt.Sprintf("s%03d", k),
			Dst:   fmt.Sprintf("d%03d", k),
			Chain: fmt.Sprintf("s%03d->d%03d", k, k),
			Waste: float64(rng.Intn(50)), Use: float64(rng.Intn(50)),
		})
	}
	return witch.NewProfile(witch.Profile{
		Program: program, Tool: string(witch.DeadStores), Waste: 1, Use: 1,
	}, pairs)
}

// foldExport merges an export the way the daemon's materialize step
// does (every partition in id order, unkeyed first) and returns
// canonical JSON.
func foldExport(t *testing.T, exp *store.Export) []byte {
	t.Helper()
	a := agg.New()
	ids := make([]string, 0, len(exp.Parts))
	for id := range exp.Parts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a.MergeState(exp.Parts[id])
	}
	b, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeltaPatchingMatchesFullExport is the delta-protocol property
// test: across random sequences of keyed/unkeyed ingest, clock jumps
// (bucket eviction), partition removal/replacement, and snapshot
// restore, a coordinator baseline patched with ExportDelta responses
// must fold byte-identically to the store's own full export — and the
// steady-state delta (nothing changed) must ship no partitions.
func TestDeltaPatchingMatchesFullExport(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := time.Unix(1700000000, 0)
		st := store.New(store.Config{Window: time.Minute, Buckets: 3, Now: func() time.Time { return clock }})
		e := &scatterEntry{}

		ids := []string{"", "p0", "p1", "p2", "p3"}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // ingest, keyed or unkeyed
				id := ids[rng.Intn(len(ids))]
				st.IngestKeyedAt(id, deltaProfile(rng, "prog-"+id), clock)
			case op < 8: // clock jump: ages buckets out, forces folds
				clock = clock.Add(time.Duration(1+rng.Intn(4)) * time.Minute)
			case op < 9: // partition churn: remove, sometimes reinstall
				id := ids[1+rng.Intn(len(ids)-1)]
				img := st.PartitionImage(id)
				st.ReplacePartition(id, nil)
				if rng.Intn(2) == 0 {
					st.ReplacePartition(id, img)
				}
			default: // snapshot/restore: new generation, epochs reset
				var buf bytes.Buffer
				if err := st.Snapshot(&buf, 0, nil); err != nil {
					t.Fatal(err)
				}
				st2 := store.New(store.Config{Window: time.Minute, Buckets: 3, Now: func() time.Time { return clock }})
				if _, _, err := st2.Restore(&buf); err != nil {
					t.Fatal(err)
				}
				st = st2
			}

			d := st.ExportDelta(0, e.ver)
			e.apply(&ShardDelta{Delta: d})
			if got, want := foldExport(t, e.export), foldExport(t, st.Export(0)); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: patched baseline diverges from full export", seed, step)
			}

			// A second delta with nothing changed must be empty and
			// non-full, and applying it must not change the baseline.
			d2 := st.ExportDelta(0, e.ver)
			if d2.Full {
				t.Fatalf("seed %d step %d: unchanged epochs answered with a full export", seed, step)
			}
			if d2.Export != nil && len(d2.Export.Parts) > 0 || len(d2.Tombstones) > 0 {
				t.Fatalf("seed %d step %d: unchanged epochs shipped partitions", seed, step)
			}
			rev := e.rev
			e.apply(&ShardDelta{Delta: d2})
			if e.rev != rev {
				t.Fatalf("seed %d step %d: empty delta bumped the baseline revision", seed, step)
			}
		}
	}
}

// TestDeltaGenerationMismatchFullShips: a baseline from another store
// generation (restart/restore) must be answered with a full export,
// never trusted for epoch comparison.
func TestDeltaGenerationMismatchFullShips(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	now := func() time.Time { return clock }
	st := store.New(store.Config{Window: time.Minute, Buckets: 3, Now: now})
	st.IngestKeyedAt("p0", deltaProfile(rand.New(rand.NewSource(1)), "prog"), clock)

	e := &scatterEntry{}
	e.apply(&ShardDelta{Delta: st.ExportDelta(0, e.ver)})

	// Same data, new generation via snapshot/restore.
	var buf bytes.Buffer
	if err := st.Snapshot(&buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	st2 := store.New(store.Config{Window: time.Minute, Buckets: 3, Now: now})
	if _, _, err := st2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	d := st2.ExportDelta(0, e.ver)
	if !d.Full {
		t.Fatal("cross-generation vector must be answered with a full export")
	}
	e.apply(&ShardDelta{Delta: d})
	if got, want := foldExport(t, e.export), foldExport(t, st2.Export(0)); !bytes.Equal(got, want) {
		t.Fatal("full-ship after generation change diverges")
	}
}

// TestDeltaRejectsUnsortedPartition: a peer's changed partition that
// breaks agg.State's order contract fails its leg, and the baseline is
// left as it was, so the coordinator's binary-searched fold can never
// silently drop the rows of a misordered State.
func TestDeltaRejectsUnsortedPartition(t *testing.T) {
	a := agg.New()
	a.Merge(deltaProfile(rand.New(rand.NewSource(1)), "prog"))
	a.Merge(deltaProfile(rand.New(rand.NewSource(2)), "prog"))
	good := a.State()
	if len(good.Pairs) < 2 {
		t.Fatalf("test state has %d pairs, want >= 2", len(good.Pairs))
	}
	bad := a.State()
	bad.Pairs[0], bad.Pairs[1] = bad.Pairs[1], bad.Pairs[0]

	var serve *store.Export
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sd := &ShardDelta{Delta: &store.ExportDelta{
			Full: true, Export: serve,
			Ver: store.ExportVersion{Epochs: map[string]uint64{"p": 1}},
		}}
		if err := gob.NewEncoder(w).Encode(sd); err != nil {
			t.Error(err)
		}
	}))
	defer peer.Close()
	self := "http://10.0.0.1:9147"
	r := mustRouter(t, Config{Self: self, Peers: []string{self, peer.URL}})

	for _, c := range []struct {
		name string
		exp  *store.Export
	}{
		{"unkeyed", &store.Export{Parts: map[string]*agg.State{"": bad}}},
		{"keyed", &store.Export{Parts: map[string]*agg.State{"p": good, "q": bad}}},
	} {
		serve = c.exp
		sr := r.ScatterDeltas(context.Background(), "")[0]
		if sr.Err == nil || !strings.Contains(sr.Err.Error(), "out of order") {
			t.Fatalf("%s: misordered partition accepted (err %v)", c.name, sr.Err)
		}
		if e := r.scatterEntryFor(peer.URL, ""); e.export != nil || e.ver.Epochs != nil {
			t.Fatalf("%s: rejected delta patched the baseline", c.name)
		}
	}
	serve = &store.Export{Parts: map[string]*agg.State{"": good, "p": good}}
	if sr := r.ScatterDeltas(context.Background(), "")[0]; sr.Err != nil || sr.Export.Parts["p"] == nil {
		t.Fatalf("ordered delta: err %v, export %+v", sr.Err, sr.Export)
	}
}

// TestDeltaEmptyPeerStaysDelta: a peer whose window holds no partition
// answers steady-state polls with deltas, not full exports, once the
// baseline's empty epoch vector has made the round trip through both
// wire decoders (gob sends an empty non-nil map, and the vector's
// presence is what tells the exporter the caller has a baseline).
func TestDeltaEmptyPeerStaysDelta(t *testing.T) {
	st := store.New(store.Config{Window: time.Minute, Buckets: 3})
	e := &scatterEntry{}
	for round := 0; round < 3; round++ {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(&DeltaRequest{Ver: e.ver}); err != nil {
			t.Fatal(err)
		}
		req, err := DecodeDeltaRequest(&body)
		if err != nil {
			t.Fatal(err)
		}
		d := st.ExportDelta(0, req.Ver)
		if got, want := d.Full, round == 0; got != want {
			t.Fatalf("round %d: full export %v, want %v", round, got, want)
		}
		var reply bytes.Buffer
		if err := gob.NewEncoder(&reply).Encode(&ShardDelta{Delta: d}); err != nil {
			t.Fatal(err)
		}
		sd, err := decodeShardDelta(reply.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		e.apply(sd)
	}
}
