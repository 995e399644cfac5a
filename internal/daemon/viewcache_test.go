package daemon

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/store"
	"repro/witch"
)

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return r.StatusCode, b
}

// TestResponseCacheServesIdenticalBytesAndInvalidates: repeated /v1/top
// and /v1/profile hits are served from the rendered cache (hit counter
// moves, bytes identical), and new ingest invalidates — the next
// response reflects the new data.
func TestResponseCacheServesIdenticalBytesAndInvalidates(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	now := func() time.Time { return clock }
	srv, ts := newTestServer(t, store.Config{Now: now})
	prof := testProfile(t, 1)

	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	ingest(t, ts, body.Bytes())

	topURL := ts.URL + "/v1/top?tool=" + prof.Tool
	profURL := ts.URL + "/v1/profile?tool=" + prof.Tool

	_, top1 := getBody(t, topURL)
	_, prof1 := getBody(t, profURL)
	misses := srv.viewMisses.Load()
	_, top2 := getBody(t, topURL)
	_, prof2 := getBody(t, profURL)
	if !bytes.Equal(top1, top2) || !bytes.Equal(prof1, prof2) {
		t.Fatal("cached response bytes drifted")
	}
	if srv.viewMisses.Load() != misses {
		t.Fatalf("repeat queries missed the rendered cache (misses %d -> %d)", misses, srv.viewMisses.Load())
	}
	if srv.viewHits.Load() == 0 {
		t.Fatal("no rendered-cache hit recorded")
	}
	if srv.queries.Load() != 4 {
		t.Fatalf("queries counter must move on hits too, got %d want 4", srv.queries.Load())
	}

	// New data invalidates: the store epoch moves, the fingerprint
	// changes, and the next response is rebuilt with the new profile.
	prof2nd := testProfile(t, 2)
	body.Reset()
	if err := prof2nd.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	ingest(t, ts, body.Bytes())
	_, top3 := getBody(t, topURL)
	if bytes.Equal(top1, top3) {
		t.Fatal("response unchanged after new ingest: stale cache served")
	}

	// An uncached oracle daemon fed the same batches byte-agrees.
	oSrv, oTs := newTestServer(t, store.Config{Now: now, NoCache: true})
	oSrv.cfg.NoQueryCache = true
	for _, p := range []int64{1, 2} {
		var b bytes.Buffer
		if err := testProfile(t, p).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		ingest(t, oTs, b.Bytes())
	}
	_, oracleTop := getBody(t, oTs.URL+"/v1/top?tool="+prof.Tool)
	if !bytes.Equal(top3, oracleTop) {
		t.Fatalf("cached daemon diverges from uncached oracle:\n%s\n%s", top3, oracleTop)
	}
}

// TestHealthzToolsFromMaintainedSet: /healthz lists tools without
// folding all-time state, and the list matches the data actually held.
func TestHealthzToolsFromMaintainedSet(t *testing.T) {
	srv, ts := newTestServer(t, store.Config{})
	prof := testProfile(t, 1)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	ingest(t, ts, body.Bytes())

	st, hb := getBody(t, ts.URL+"/healthz")
	if st != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", st)
	}
	if !bytes.Contains(hb, []byte(`"tools":["`+prof.Tool+`"]`)) {
		t.Fatalf("healthz tools list missing %q: %s", prof.Tool, hb)
	}
	// The fast path must not have paid a Query(0): the store's query
	// cache saw no traffic from /healthz's tools list. (Health() does
	// query; tools must come from the maintained set.)
	if got, want := srv.st.Tools(), []string{prof.Tool}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("maintained tool set = %v, want %v", got, want)
	}
}

// synthProfile builds a profile with enough distinct pairs that a full
// export visibly outweighs gob framing — needed to observe the delta
// protocol's byte savings.
func synthProfile(program string, n int, seed int64) *witch.Profile {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]witch.Pair, 0, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(1 << 16)
		pairs = append(pairs, witch.Pair{
			Src:   fmt.Sprintf("store_%05d", k),
			Dst:   fmt.Sprintf("load_%05d", k),
			Chain: fmt.Sprintf("s%05d->l%05d", k, k),
			Waste: float64(rng.Intn(100)), Use: float64(rng.Intn(100)),
		})
	}
	return witch.NewProfile(witch.Profile{
		Program: program, Tool: string(witch.DeadStores), Waste: 1, Use: 1,
	}, pairs)
}

// TestDeltaScatterConvergesAndCountsLegs: in a 3-node ring, the first
// fleet query pays full shard legs; repeat queries at unchanged epochs
// ship deltas (near-zero bytes) and serve byte-identical responses;
// new ingest on a peer is visible on the very next query.
func TestDeltaScatterConvergesAndCountsLegs(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 3})
	prof := testProfile(t, 1)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	if r := keyedIngest(t, nodes[1].url, body.Bytes(), "delta-pusher-a", 1); r.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest: HTTP %d", r.StatusCode)
	}
	// Bulk state so full exports dwarf gob framing: the byte-reduction
	// assertion below is meaningless against near-empty shards.
	for i := 0; i < 8; i++ {
		var b bytes.Buffer
		if err := synthProfile(fmt.Sprintf("prog-%d", i), 400, int64(i)+1).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if r := keyedIngest(t, nodes[i%3].url, b.Bytes(), fmt.Sprintf("bulk-pusher-%d", i), 1); r.StatusCode != http.StatusOK {
			t.Fatalf("bulk ingest %d: HTTP %d", i, r.StatusCode)
		}
	}

	topURL := nodes[0].url + "/v1/top?tool=" + prof.Tool
	_, top1 := getBody(t, topURL)
	cs := nodes[0].srv.Cluster().StatsSnapshot()
	if cs.ScatterFullLegs == 0 {
		t.Fatalf("first fleet query paid no full legs: %+v", cs)
	}
	bytesAfterFirst := cs.ScatterBytes

	for i := 0; i < 5; i++ {
		_, topN := getBody(t, topURL)
		if !bytes.Equal(top1, topN) {
			t.Fatalf("repeat fleet query %d drifted", i)
		}
	}
	cs2 := nodes[0].srv.Cluster().StatsSnapshot()
	if cs2.ScatterDeltaLegs == 0 {
		t.Fatalf("steady-state queries paid no delta legs: %+v", cs2)
	}
	if cs2.ScatterFullLegs != cs.ScatterFullLegs {
		t.Fatalf("steady-state queries paid full legs: %d -> %d", cs.ScatterFullLegs, cs2.ScatterFullLegs)
	}
	// Per-round steady bytes must be a small fraction of the first full
	// scatter (the ≥80% gate on real volume lives in witchbench).
	perRound := (cs2.ScatterBytes - bytesAfterFirst) / 5
	if perRound*2 >= bytesAfterFirst {
		t.Fatalf("steady-state scatter bytes not reduced: first=%d, per steady round=%d", bytesAfterFirst, perRound)
	}

	// A write on another node is visible on the very next fleet query —
	// the delta ships the changed partition.
	prof2 := testProfile(t, 2)
	body.Reset()
	if err := prof2.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	keyedIngest(t, nodes[2].url, body.Bytes(), "delta-pusher-b", 1)
	_, top3 := getBody(t, topURL)
	if bytes.Equal(top1, top3) {
		t.Fatal("fleet query did not see a peer's new ingest through the delta path")
	}

	// And the view byte-agrees with a fresh coordinator that never had
	// a baseline (full fetch path).
	_, topFresh := getBody(t, nodes[1].url+"/v1/top?tool="+prof.Tool)
	if !bytes.Equal(top3, topFresh) {
		t.Fatalf("delta-patched view diverges from fresh full view:\n%s\n%s", top3, topFresh)
	}
}
