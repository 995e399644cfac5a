package daemon

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/witch"
)

// ringOptions configures newTestRing. The zero value of every field
// but n is the plain ring: RF 1, memory-only, wall clock.
type ringOptions struct {
	n  int // nodes
	rf int // replication factor (0 and 1: a single owner per pusher)
	// hints gives each node a data dir, so its hinted-handoff queues
	// live on disk (without it the node and its hints are memory-only).
	hints bool
	// clock, when set, drives every router's breaker cooldowns, and one
	// failed leg opens a peer's breaker — so breaker state changes
	// exactly when a test fails a leg or advances the clock.
	clock *fakeClock
	// traced wires a per-node Observer with a trace ring into both the
	// handler layer and the router, so spans chain across legs.
	traced bool
}

// testNode is one member of an in-process ring. Its reachability flips
// with the down switch (the wrapper answers 503 for everything, which
// is what a drowning or partitioned node looks like to its peers'
// breakers). The reject switch instead 400s replication legs only — a
// healthy-looking follower that durably refuses the bytes (smaller
// MaxBody, decode bug).
type testNode struct {
	srv    *Server
	h      http.Handler // the node's handler, built once before the listener starts
	ht     *httptest.Server
	url    string
	down   atomic.Bool
	reject atomic.Bool
}

// newTestRing boots o.n in-process nodes through OpenNode, wired into
// one ring over real loopback HTTP (a single node gets no router).
// Background drain/repair loops are effectively disabled — tests call
// DrainHintsNow/RepairNow for determinism.
func newTestRing(t *testing.T, o ringOptions) []*testNode {
	t.Helper()
	nodes := make([]*testNode, o.n)
	urls := make([]string, o.n)
	for i := range nodes {
		nd := &testNode{}
		nd.ht = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if nd.down.Load() {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			if nd.reject.Load() && r.URL.Path == "/v1/replicate" {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			nd.h.ServeHTTP(w, r)
		}))
		nd.url = "http://" + nd.ht.Listener.Addr().String()
		nodes[i], urls[i] = nd, nd.url
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.ht.Close()
		}
	})
	for _, nd := range nodes {
		cfg := NodeConfig{Replication: ReplicationConfig{
			DrainInterval:  time.Hour,
			RepairInterval: -1,
			Logf:           t.Logf,
		}}
		if o.traced {
			cfg.Server.Obs = obs.New(obs.Options{Node: nd.url, TraceRing: 256, SlowCapture: 8})
		}
		if o.hints {
			cfg.DataDir = t.TempDir()
		}
		if o.n > 1 {
			cfg.Cluster = &cluster.Config{Self: nd.url, Peers: urls, ReplicationFactor: o.rf, Logf: t.Logf}
			if o.clock != nil {
				cfg.Cluster.BreakerThreshold, cfg.Cluster.Now = 1, o.clock.Now
			}
		}
		node, err := OpenNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Kill)
		nd.srv, nd.h = node.Server(), node.Handler()
		nd.ht.Start()
	}
	return nodes
}

// keyedIngest POSTs one keyed batch and returns the response.
func keyedIngest(t *testing.T, url string, body []byte, id string, seq uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(witch.PusherIDHeader, id)
	req.Header.Set(witch.PusherSeqHeader, fmt.Sprintf("%d", seq))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestClusterForwardIngest: a keyed batch entering at a non-owner is
// journaled and merged on its owner, the ack (and a duplicate's
// re-ack) relays byte-identically, and the data is queryable from any
// node via scatter-gather while living on exactly one.
func TestClusterForwardIngest(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 3})
	prof := testProfile(t, 1)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}

	// Pick a pusher identity owned by a node that is not the entry.
	const id = "test-pusher-forwarding"
	ownerURL := nodes[0].srv.Cluster().Owner(id)
	entry := -1
	owner := -1
	for i, nd := range nodes {
		if nd.url == ownerURL {
			owner = i
		} else if entry == -1 {
			entry = i
		}
	}
	if owner == -1 {
		t.Fatalf("owner %s not in the ring", ownerURL)
	}

	resp := keyedIngest(t, nodes[entry].url, body.Bytes(), id, 1)
	ack1, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded ingest: HTTP %d: %s", resp.StatusCode, ack1)
	}
	if nodes[owner].srv.batches.Load() != 1 || nodes[entry].srv.batches.Load() != 0 {
		t.Fatalf("batch landed wrong: owner=%d entry=%d",
			nodes[owner].srv.batches.Load(), nodes[entry].srv.batches.Load())
	}
	if nodes[owner].srv.forwardedIn.Load() != 1 {
		t.Fatal("owner did not count the forwarded arrival")
	}
	if s := nodes[entry].srv.Cluster().StatsSnapshot(); s.Forwards != 1 {
		t.Fatalf("entry did not count the forward: %+v", s)
	}

	// A duplicate retry through the entry node re-acks with the owner's
	// duplicate marker and an ack body identical to the original's.
	resp2 := keyedIngest(t, nodes[entry].url, body.Bytes(), id, 1)
	ack2, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Witch-Duplicate") != "window" {
		t.Fatalf("duplicate not re-acked through forward: HTTP %d, dup=%q",
			resp2.StatusCode, resp2.Header.Get("X-Witch-Duplicate"))
	}
	if !bytes.Equal(ack1, ack2) {
		t.Fatalf("re-ack drifted:\n%s\n%s", ack1, ack2)
	}
	if heldProfiles(nodes[owner].srv.st) != 1 {
		t.Fatal("duplicate was re-merged on the owner")
	}

	// Fleet query from every node sees the same single profile; the
	// entry node's local store stays empty.
	for i, nd := range nodes {
		r, err := http.Get(nd.url + "/v1/top?tool=" + prof.Tool)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("node %d fleet query: HTTP %d", i, r.StatusCode)
		}
		if r.Header.Get("X-Witch-Incomplete") != "" {
			t.Fatalf("node %d query partial with all peers up", i)
		}
		r.Body.Close()
	}
	r, err := http.Get(nodes[entry].url + "/v1/top?tool=" + prof.Tool + "&scope=local")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("entry node holds local data it should have forwarded: HTTP %d", r.StatusCode)
	}
}

// TestClusterPartialQuery: with one node down, surviving nodes answer
// fleet queries with what they can reach and say what they could not
// — the Incomplete marker in both header and body — and /v1/healthz
// degrades instead of failing.
func TestClusterPartialQuery(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 3})
	prof := testProfile(t, 2)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	// Land one batch on node 0's local store directly (unkeyed, no
	// forwarding), then kill node 2.
	resp := ingest(t, nodes[0].ht, body.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}
	nodes[2].ht.Close()

	r, err := http.Get(nodes[1].url + "/v1/top?tool=" + prof.Tool)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("partial query: HTTP %d", r.StatusCode)
	}
	if got := r.Header.Get("X-Witch-Incomplete"); got != nodes[2].url {
		t.Fatalf("X-Witch-Incomplete = %q, want %q", got, nodes[2].url)
	}
	var top struct {
		Waste      float64  `json:"waste"`
		Incomplete []string `json:"incomplete"`
	}
	if err := json.NewDecoder(r.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	if len(top.Incomplete) != 1 || top.Incomplete[0] != nodes[2].url {
		t.Fatalf("incomplete field = %v", top.Incomplete)
	}
	if top.Waste != prof.Waste {
		t.Fatalf("reachable data missing from partial answer: %v vs %v", top.Waste, prof.Waste)
	}

	hr, err := http.Get(nodes[1].url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var fleet struct {
		Status     string               `json:"status"`
		Nodes      []cluster.PeerHealth `json:"nodes"`
		Incomplete []string             `json:"incomplete"`
		Profiles   uint64               `json:"profiles"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Status != "degraded" || len(fleet.Nodes) != 3 {
		t.Fatalf("fleet health: %+v", fleet)
	}
	if len(fleet.Incomplete) != 1 || fleet.Incomplete[0] != nodes[2].url {
		t.Fatalf("fleet incomplete = %v", fleet.Incomplete)
	}
	if fleet.Profiles != 1 {
		t.Fatalf("fleet profiles = %d", fleet.Profiles)
	}
}

// TestShardRoutes: GET /v1/shard serves only the ?pusher= repair unit;
// a window export without it is a 400 that names the POST delta
// protocol, which keeps serving full and then empty deltas.
func TestShardRoutes(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 2})
	prof := testProfile(t, 4)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	const id = "shard-route-pusher"
	if resp := keyedIngest(t, nodes[0].url, body.Bytes(), id, 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed ingest: HTTP %d", resp.StatusCode)
	}
	holder := nodes[0]
	if heldProfiles(nodes[1].srv.st) == 1 {
		holder = nodes[1]
	}

	r, err := http.Get(holder.url + "/v1/shard?window=5m")
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "POST") {
		t.Fatalf("GET /v1/shard without pusher: HTTP %d %.80q, want 400 naming POST", r.StatusCode, msg)
	}

	r, err = http.Get(holder.url + "/v1/shard?pusher=" + id)
	if err != nil {
		t.Fatal(err)
	}
	var pt cluster.PartitionTransfer
	err = gob.NewDecoder(r.Body).Decode(&pt)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || err != nil || pt.DedupMax != 1 || pt.Image == nil {
		t.Fatalf("repair unit: HTTP %d, err %v, dedup max %d", r.StatusCode, err, pt.DedupMax)
	}

	delta := func(ver store.ExportVersion) *cluster.ShardDelta {
		t.Helper()
		var req bytes.Buffer
		if err := gob.NewEncoder(&req).Encode(&cluster.DeltaRequest{Ver: ver}); err != nil {
			t.Fatal(err)
		}
		r, err := http.Post(holder.url+"/v1/shard?window=5m", "application/x-gob", &req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/shard: HTTP %d", r.StatusCode)
		}
		sd := new(cluster.ShardDelta)
		if err := gob.NewDecoder(r.Body).Decode(sd); err != nil || sd.Delta == nil {
			t.Fatalf("decoding shard delta: %v", err)
		}
		return sd
	}
	first := delta(store.ExportVersion{})
	if !first.Delta.Full || first.Delta.Export == nil || first.Delta.Export.Parts[id] == nil {
		t.Fatalf("first contact is not a full export holding %s: %+v", id, first.Delta)
	}
	again := delta(first.Delta.Ver)
	if again.Delta.Full || (again.Delta.Export != nil && len(again.Delta.Export.Parts) != 0) {
		t.Fatalf("unchanged store shipped a non-empty delta: %+v", again.Delta)
	}
}

// TestTopNValidation: garbage n values are caller bugs and get 400s,
// not silent defaults; the cap bounds the response size.
func TestTopNValidation(t *testing.T) {
	_, ts := newTestServer(t, store.Config{})
	prof := testProfile(t, 3)
	var body bytes.Buffer
	prof.WriteJSON(&body)
	if resp := ingest(t, ts, body.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}
	bad := []string{"abc", "-1", "0", "12.5", "1000000", "+e9"}
	for _, n := range bad {
		r, err := http.Get(ts.URL + "/v1/top?tool=" + prof.Tool + "&n=" + n)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("n=%q: HTTP %d, want 400", n, r.StatusCode)
		}
	}
	for _, n := range []string{"1", "20", "1000"} {
		r, err := http.Get(ts.URL + "/v1/top?tool=" + prof.Tool + "&n=" + n)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("n=%q: HTTP %d, want 200", n, r.StatusCode)
		}
	}
}

// TestMetricsEndpoint: the plaintext counters cover ingest, store,
// dedup, and — with a ring — cluster and per-peer breaker state.
func TestMetricsEndpoint(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 2})
	prof := testProfile(t, 4)
	var body bytes.Buffer
	prof.WriteJSON(&body)
	const id = "metrics-pusher"
	entry := 0
	if nodes[0].srv.Cluster().IsOwner(id) {
		entry = 1
	}
	if resp := keyedIngest(t, nodes[entry].url, body.Bytes(), id, 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}
	r, err := http.Get(nodes[entry].url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	text, _ := io.ReadAll(r.Body)
	for _, want := range []string{
		`witchd_state{state="serving"} 1`,
		"witchd_ingest_batches_total 0",
		"witchd_cluster_forwards_total 1",
		"witchd_dedup_pushers 0",
		"witchd_store_live_pairs 0",
		"witchd_peer_breaker_open{peer=",
		"witchd_queries_total 0",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestDedupEvictionReack is the eviction-replay hole: a pusher whose
// window was LRU-evicted replays an old (acked) sequence — e.g. a
// forwarded re-ingest after a partition. The tombstone must re-ack
// it; merging it twice would corrupt the aggregate forever.
func TestDedupEvictionReack(t *testing.T) {
	d := NewDedup(128, 2)
	applied := 0
	apply := func(commit func()) error { applied++; commit(); return nil }

	if dup, _, err := d.Process("A", 7, apply); err != nil || dup {
		t.Fatalf("first A/7: dup=%v err=%v", dup, err)
	}
	// Two newer pushers force A out of the 2-entry table.
	d.Process("B", 1, apply)
	d.Process("C", 1, apply)
	if st := d.Stats(); st.EvictedPushers != 1 || st.Tombstones != 1 {
		t.Fatalf("A not evicted with tombstone: %+v", st)
	}

	// The replay of A's acked sequence must re-ack, not re-merge.
	before := applied
	dup, _, err := d.Process("A", 7, apply)
	if err != nil || !dup {
		t.Fatalf("evicted replay A/7: dup=%v err=%v", dup, err)
	}
	if applied != before {
		t.Fatal("evicted replay was re-applied (double merge)")
	}
	// Sequences below the tombstone's window are stale re-acks.
	if dup, stale, _ := d.Process("A", 0, apply); !dup && !stale {
		t.Fatalf("pre-window replay processed: dup=%v stale=%v", dup, stale)
	}
	// Genuinely new work from the returned pusher still flows.
	before = applied
	if dup, _, _ := d.Process("A", 8, apply); dup || applied != before+1 {
		t.Fatalf("fresh A/8 after return: dup=%v applied=%d", dup, applied)
	}
}

// TestDedupPinnedWindowSurvivesEviction: the LRU may never evict a
// window whose batch is mid-apply — that would orphan the commit mark
// and re-merge the retry. The pin makes the mid-flight window
// invisible to the victim scan.
func TestDedupPinnedWindowSurvivesEviction(t *testing.T) {
	d := NewDedup(128, 2)
	inApply := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Process("pinned", 5, func(commit func()) error {
			close(inApply)
			<-release
			commit()
			return nil
		})
	}()
	<-inApply
	// Overflow the table while the apply is in flight; the scan must
	// pick the other window, never the pinned one.
	quick := func(commit func()) error { commit(); return nil }
	d.Process("other1", 1, quick)
	d.Process("other2", 1, quick)
	d.Process("other3", 1, quick)
	close(release)
	<-done

	applied := 0
	dup, _, err := d.Process("pinned", 5, func(commit func()) error { applied++; commit(); return nil })
	if err != nil || !dup || applied != 0 {
		t.Fatalf("pinned window lost its mark: dup=%v applied=%d err=%v", dup, applied, err)
	}
}

// TestDedupTombstoneSnapshotRoundTrip: tombstones survive the
// snapshot codec, so a crash cannot resurrect an evicted pusher's
// acked sequences either.
func TestDedupTombstoneSnapshotRoundTrip(t *testing.T) {
	d := NewDedup(128, 2)
	apply := func(commit func()) error { commit(); return nil }
	d.Process("A", 9, apply)
	d.Process("B", 1, apply)
	d.Process("C", 1, apply) // evicts A
	blob, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDedup(128, 2)
	if err := d2.Load(blob); err != nil {
		t.Fatal(err)
	}
	applied := 0
	dup, _, err := d2.Process("A", 9, func(commit func()) error { applied++; commit(); return nil })
	if err != nil || !dup || applied != 0 {
		t.Fatalf("tombstone lost across snapshot: dup=%v applied=%d err=%v", dup, applied, err)
	}
}

// TestDedupConcurrentEvictionChurn hammers a tiny table from many
// goroutines so the race detector can chew on the pin/evict/tombstone
// paths; every pusher then re-checks that its acked sequences re-ack.
// The pusher universe (6) fits inside live (4) + tombstone (4)
// capacity — the regime where exactly-once is guaranteed; past it the
// bound is a memory cap, not a correctness promise.
func TestDedupConcurrentEvictionChurn(t *testing.T) {
	d := NewDedup(64, 4)
	const pushers = 6
	const seqs = 32
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := fmt.Sprintf("churn-%d", p)
			for s := uint64(1); s <= seqs; s++ {
				d.Process(id, s, func(commit func()) error {
					commit()
					return nil
				})
			}
		}(p)
	}
	wg.Wait()
	// Every pusher's top sequence must re-ack from window or tombstone.
	for p := 0; p < pushers; p++ {
		id := fmt.Sprintf("churn-%d", p)
		applied := 0
		dup, stale, err := d.Process(id, seqs, func(commit func()) error { applied++; commit(); return nil })
		if err != nil || (!dup && !stale) || applied != 0 {
			t.Fatalf("%s seq %d re-merged: dup=%v stale=%v applied=%d", id, seqs, dup, stale, applied)
		}
	}
}
