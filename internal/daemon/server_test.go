package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/store"
	"repro/witch"
)

func testProfile(t *testing.T, seed int64) *witch.Profile {
	t.Helper()
	prog, err := witch.Workload("listing3")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := witch.Run(prog, witch.Options{Tool: witch.DeadStores, Period: 97, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func newTestServer(t *testing.T, cfg store.Config) (*Server, *httptest.Server) {
	t.Helper()
	node, err := OpenNode(NodeConfig{Store: cfg, Server: Config{MaxBody: 4 << 20, Now: cfg.Now}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(node.Handler())
	t.Cleanup(ts.Close)
	return node.Server(), ts
}

func ingest(t *testing.T, ts *httptest.Server, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestIngestProfileRoundTrip is the acceptance pipeline: WriteJSON →
// POST /v1/ingest → GET /v1/profile → DiffProfiles reports zero drift
// for a single-source window.
func TestIngestProfileRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, store.Config{})
	prof := testProfile(t, 1)

	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	if resp := ingest(t, ts, body.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/profile?tool=" + prof.Tool)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: HTTP %d", resp.StatusCode)
	}
	merged, err := witch.ReadProfileJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	d, err := witch.DiffProfiles(prof, merged)
	if err != nil {
		t.Fatal(err)
	}
	if d.RedundancyDelta != 0 || len(d.New)+len(d.Gone)+len(d.Changed) != 0 {
		var out bytes.Buffer
		d.Write(&out)
		t.Fatalf("single-source round trip drifted:\n%s", out.String())
	}
	// Bit-level: the re-materialized pair list must match exactly.
	a, b := prof.TopPairs(0), merged.TopPairs(0)
	if len(a) != len(b) {
		t.Fatalf("pair count drifted: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d drifted:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	if merged.Program != prof.Program || merged.Waste != prof.Waste || merged.Stats != prof.Stats {
		t.Fatal("profile metadata drifted through the daemon")
	}
}

// TestIngestBatchAndRouting: one request may carry many profiles —
// concatenated or as a JSON array — and each routes to its own tool.
func TestIngestBatchAndRouting(t *testing.T) {
	_, ts := newTestServer(t, store.Config{})
	dead, load := testProfile(t, 1), testLoadProfile(t)

	var stream bytes.Buffer
	dead.WriteJSON(&stream)
	load.WriteJSON(&stream) // concatenated WriteJSON documents
	resp := ingest(t, ts, stream.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream ingest: HTTP %d", resp.StatusCode)
	}
	var ack struct {
		Accepted int            `json:"accepted"`
		ByTool   map[string]int `json:"by_tool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 2 || ack.ByTool[dead.Tool] != 1 || ack.ByTool[load.Tool] != 1 {
		t.Fatalf("ack = %+v", ack)
	}

	// Array form.
	var d1, d2 bytes.Buffer
	dead.WriteJSON(&d1)
	load.WriteJSON(&d2)
	arr := "[" + d1.String() + "," + d2.String() + "]"
	if resp := ingest(t, ts, []byte(arr)); resp.StatusCode != http.StatusOK {
		t.Fatalf("array ingest: HTTP %d", resp.StatusCode)
	}

	// Tools stayed separate.
	for _, tool := range []string{dead.Tool, load.Tool} {
		resp, err := http.Get(ts.URL + "/v1/top?tool=" + tool)
		if err != nil {
			t.Fatal(err)
		}
		var top struct {
			Tool  string       `json:"tool"`
			Pairs []witch.Pair `json:"pairs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&top)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if top.Tool != tool || len(top.Pairs) == 0 {
			t.Fatalf("top for %s = %+v", tool, top)
		}
	}
}

func testLoadProfile(t *testing.T) *witch.Profile {
	t.Helper()
	prog, err := witch.Workload("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := witch.Run(prog, witch.Options{Tool: witch.RedundantLoads, Period: 197, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.TopPairs(0)) == 0 {
		t.Fatal("load profile has no pairs")
	}
	return prof
}

// TestIngestRejections: hostile bodies — malformed JSON, schema
// violations, wrong method, oversized payloads — are rejected atomically
// with descriptive errors, and nothing half-lands.
func TestIngestRejections(t *testing.T) {
	srv, ts := newTestServer(t, store.Config{})
	prof := testProfile(t, 1)
	var good bytes.Buffer
	prof.WriteJSON(&good)

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"garbage", "not json", http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
		{"empty array", "[]", http.StatusBadRequest},
		{"bad version", strings.Replace(good.String(), `"format_version": 1`, `"format_version": 9`, 1), http.StatusBadRequest},
		{"good then bad", good.String() + "{\"format_version\": 9}", http.StatusBadRequest},
		{"binary magic only", "WITCHB1\n", http.StatusBadRequest},
		{"binary truncated", "WITCHB1\n\x05{\"a\"", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := ingest(t, ts, []byte(tc.body))
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}
	// Atomicity: the "good then bad" batch must not have landed its
	// good half.
	if got := srv.st.Stats().Ingested; got != 0 {
		t.Fatalf("%d profiles landed from rejected batches", got)
	}
	if resp, _ := http.Get(ts.URL + "/v1/ingest"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest: HTTP %d", resp.StatusCode)
	}

	// Size limit: a tiny cap rejects the same valid body outright, on
	// both batch endpoints.
	small, err := OpenNode(soloRing(NodeConfig{Server: Config{MaxBody: 16}}))
	if err != nil {
		t.Fatal(err)
	}
	defer small.Kill()
	id := ownedID(t, small.Server(), "oversize-pusher")
	for _, path := range []string{"/v1/ingest", "/v1/replicate"} {
		if rec := postBatch(small.Handler(), path, good.Bytes(), id, 1); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized %s: HTTP %d, want 413", path, rec.Code)
		}
	}
}

// soloRing joins cfg to an RF=1 ring with a peer that is never
// contacted: the node serves /v1/replicate, and coordinates every
// pusher ownedID picks without a leg to replicate.
func soloRing(cfg NodeConfig) NodeConfig {
	const self = "http://solo.test"
	cfg.Cluster = &cluster.Config{Self: self, Peers: []string{self, "http://unused.test"}}
	cfg.Replication = ReplicationConfig{DrainInterval: time.Hour, RepairInterval: -1}
	return cfg
}

// ownedID returns a pusher id srv owns, so srv coordinates its
// batches rather than forwarding them.
func ownedID(t *testing.T, srv *Server, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if id := fmt.Sprintf("%s-%d", prefix, i); srv.cl.Owner(id) == srv.cl.Self() {
			return id
		}
	}
	t.Fatal("no pusher id hashes to this node")
	return ""
}

// postBatch sends one keyed batch to path through h.
func postBatch(h http.Handler, path string, body []byte, id string, seq uint64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(witch.PusherIDHeader, id)
	req.Header.Set(witch.PusherSeqHeader, fmt.Sprint(seq))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestBatchGates locks the gates serveBatch runs for both batch
// endpoints: every case is posted to /v1/ingest and to /v1/replicate
// on a fresh node and must get the same answer there. (The 413 past
// MaxBody is TestIngestRejections' oversize case, on both endpoints.)
func TestBatchGates(t *testing.T) {
	var good bytes.Buffer
	testProfile(t, 1).WriteJSON(&good)
	cases := []struct {
		name       string
		torn       bool // a data dir whose journal tears its first append
		setup      func(t *testing.T, n *Node, path, id string)
		body       string // "" posts the good batch
		status     int
		retryAfter string
		duplicate  string
	}{
		{name: "draining", setup: func(t *testing.T, n *Node, _, _ string) { n.Server().setState(StateDraining) },
			status: http.StatusServiceUnavailable, retryAfter: "5"},
		{name: "recovering", setup: func(t *testing.T, n *Node, _, _ string) { n.Server().setState(StateRecovering) },
			status: http.StatusServiceUnavailable, retryAfter: "1"},
		{name: "semaphore full",
			setup: func(t *testing.T, n *Node, _, _ string) {
				for i := 0; i < cap(n.Server().sem); i++ {
					n.Server().sem <- struct{}{}
				}
			},
			status: http.StatusTooManyRequests, retryAfter: "1"},
		{name: "failed journal", torn: true,
			setup: func(t *testing.T, n *Node, path, id string) {
				// The torn append fails its own batch and the journal with it.
				if rec := postBatch(n.Handler(), path, good.Bytes(), id, 100); rec.Code != http.StatusServiceUnavailable {
					t.Fatalf("torn append: HTTP %d, want 503", rec.Code)
				}
			},
			status: http.StatusServiceUnavailable, retryAfter: "10"},
		{name: "undecodable body", body: "not json", status: http.StatusBadRequest},
		{name: "replayed key",
			setup: func(t *testing.T, n *Node, path, id string) {
				if rec := postBatch(n.Handler(), path, good.Bytes(), id, 1); rec.Code != http.StatusOK {
					t.Fatalf("first delivery: HTTP %d", rec.Code)
				}
			},
			status: http.StatusOK, duplicate: "window"},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/ingest", "/v1/replicate"} {
			t.Run(tc.name+path, func(t *testing.T) {
				var cfg NodeConfig
				if tc.torn {
					cfg.DataDir = t.TempDir()
					cfg.Journal.Injector = fault.NewInjector(fault.Plan{Seed: 7, TornRecord: 1})
				}
				n, err := OpenNode(soloRing(cfg))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.Kill)
				id := ownedID(t, n.Server(), "gate-pusher")
				if tc.setup != nil {
					tc.setup(t, n, path, id)
				}
				body := good.Bytes()
				if tc.body != "" {
					body = []byte(tc.body)
				}
				rec := postBatch(n.Handler(), path, body, id, 1)
				if rec.Code != tc.status {
					t.Fatalf("HTTP %d, want %d (%s)", rec.Code, tc.status, rec.Body.String())
				}
				if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
					t.Fatalf("Retry-After %q, want %q", got, tc.retryAfter)
				}
				if got := rec.Header().Get("X-Witch-Duplicate"); got != tc.duplicate {
					t.Fatalf("X-Witch-Duplicate %q, want %q", got, tc.duplicate)
				}
			})
		}
	}
}

// TestQueryValidation covers the query endpoints' error paths.
func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, store.Config{})
	for path, want := range map[string]int{
		"/v1/top":                          http.StatusBadRequest, // missing tool
		"/v1/top?tool=DeadCraft&window=x":  http.StatusBadRequest,
		"/v1/top?tool=DeadCraft&n=-1":      http.StatusBadRequest,
		"/v1/top?tool=DeadCraft":           http.StatusNotFound, // nothing ingested
		"/v1/profile?tool=DeadCraft":       http.StatusNotFound,
		"/v1/profile":                      http.StatusBadRequest,
		"/v1/profile?tool=X&program=nope":  http.StatusNotFound,
		"/v1/top?tool=DeadCraft&window=1h": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: HTTP %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestHealthz aggregates fleet health and retention stats.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, store.Config{})
	prof := testProfile(t, 1)
	var body bytes.Buffer
	prof.WriteJSON(&body)
	ingest(t, ts, body.Bytes())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	var hz struct {
		Status   string       `json:"status"`
		Profiles uint64       `json:"profiles"`
		Tools    []string     `json:"tools"`
		Health   witch.Health `json:"health"`
		Store    store.Stats  `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Profiles != 1 || len(hz.Tools) != 1 || hz.Tools[0] != prof.Tool {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.Store.Ingested != 1 {
		t.Fatalf("store stats = %+v", hz.Store)
	}

	// A degraded profile flips fleet status.
	bad := witch.NewProfile(witch.Profile{
		Program: "p", Tool: "DeadCraft", Waste: 1, Use: 1, Redundancy: 0.5,
		Health: witch.Health{SignalsLost: 3, SampleLoss: true, Degraded: true},
	}, []witch.Pair{{Src: "a:f:1", Dst: "a:g:2", Chain: "main", Waste: 1, Use: 1}})
	var bb bytes.Buffer
	bad.WriteJSON(&bb)
	ingest(t, ts, bb.Bytes())
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.Health.SignalsLost != 3 || !hz.Health.Degraded {
		t.Fatalf("degraded healthz = %+v", hz)
	}
}

// TestConcurrentPushersWithEviction is the acceptance scenario: ≥8
// parallel pushers (real witch.Pusher clients) sustain ingest against a
// live daemon under -race while a moving clock forces retention
// eviction; memory stays bounded (live pairs capped by the ring) and no
// profile is lost from the all-time view.
func TestConcurrentPushersWithEviction(t *testing.T) {
	// The clock advances one step per observation: deliveries are async
	// (the pushers' queues drain in the background), so driving time
	// from the ingest side — not the push loops — guarantees the
	// profiles actually spread across retention windows.
	var calls atomic.Int64
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	srv, ts := newTestServer(t, store.Config{
		Window:  time.Minute,
		Buckets: 3,
		Now: func() time.Time {
			n := calls.Add(1)
			return t0.Add(time.Duration(n/8) * 30 * time.Second)
		},
	})

	const (
		pushers = 8
		perP    = 20
	)
	// Distinct programs per pusher: distinct pair streams, so the
	// live-pair bound is meaningful.
	profs := make([]*witch.Profile, pushers)
	base := testProfile(t, 1)
	for i := range profs {
		meta := witch.Profile{
			Program: fmt.Sprintf("svc-%d", i), Tool: base.Tool,
			Redundancy: base.Redundancy, Waste: base.Waste, Use: base.Use,
			Stats: base.Stats, Health: base.Health,
		}
		pairs := make([]witch.Pair, len(base.TopPairs(0)))
		copy(pairs, base.TopPairs(0))
		profs[i] = witch.NewProfile(meta, pairs)
	}

	var wg sync.WaitGroup
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := witch.NewPusher(witch.PusherOptions{
				URL: ts.URL, Queue: perP, Backoff: time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < perP; j++ {
				if !p.Push(profs[i]) {
					t.Errorf("pusher %d: push %d rejected", i, j)
				}
			}
			p.Close()
			if st := p.Stats(); st.Sent != perP {
				t.Errorf("pusher %d delivered %d/%d: %+v", i, st.Sent, perP, st)
			}
		}(i)
	}
	wg.Wait()

	st := srv.st.Stats()
	if st.Ingested != pushers*perP {
		t.Fatalf("daemon ingested %d, want %d", st.Ingested, pushers*perP)
	}
	if st.EvictedBuckets == 0 {
		t.Fatal("no eviction observed under sustained ingest")
	}
	if st.LiveBuckets > 3 {
		t.Fatalf("live buckets %d exceed ring size", st.LiveBuckets)
	}
	// Bounded memory: live pairs are capped by ring size × distinct
	// streams per window, regardless of how long ingest ran.
	maxLive := 3 * pushers * len(base.TopPairs(0))
	if st.LivePairs > maxLive {
		t.Fatalf("live pairs %d exceed retention bound %d", st.LivePairs, maxLive)
	}
	// Nothing lost: the all-time view accounts for every push.
	if got := heldProfiles(srv.st); got != pushers*perP {
		t.Fatalf("all-time view has %d profiles, want %d", got, pushers*perP)
	}
}
