package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/witch"
)

// TestTracePropagationAcrossForwardAndReplicate: one keyed ingest
// carrying an X-Witch-Trace header, entered at a node outside the
// pusher's replica set, leaves spans on all three nodes — entry
// ingest, forward leg, owner ingest, replicate leg, replica apply —
// and GET /v1/trace/{id} against the entry node gathers the whole
// tree in one query.
func TestTracePropagationAcrossForwardAndReplicate(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 3, rf: 2, traced: true})
	prof := testProfile(t, 31)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}

	// An identity whose replica set excludes node 0: entry, owner, and
	// replica are then three distinct nodes.
	id, entry := "", 0
	for i := 0; i < 10000 && id == ""; i++ {
		cand := fmt.Sprintf("traced-%04d", i)
		excluded := true
		for _, peer := range nodes[0].srv.Cluster().ReplicaSet(cand) {
			if peer == nodes[entry].url {
				excluded = false
			}
		}
		if excluded {
			id = cand
		}
	}
	if id == "" {
		t.Fatal("no pusher id excluded node 0 from its replica set")
	}

	const header = "00000000deadbeef-0000000000000001"
	req, err := http.NewRequest(http.MethodPost, nodes[entry].url+"/v1/ingest", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(witch.PusherIDHeader, id)
	req.Header.Set(witch.PusherSeqHeader, "1")
	req.Header.Set(obs.TraceHeader, header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}

	var gathered struct {
		Trace      string     `json:"trace"`
		Nodes      []string   `json:"nodes"`
		Spans      []obs.Span `json:"spans"`
		Incomplete []string   `json:"incomplete"`
	}
	r, err := http.Get(nodes[entry].url + "/v1/trace/00000000deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace: HTTP %d", r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(&gathered); err != nil {
		t.Fatal(err)
	}
	if len(gathered.Incomplete) > 0 {
		t.Fatalf("gather incomplete: %v", gathered.Incomplete)
	}
	if len(gathered.Nodes) != 3 {
		t.Fatalf("trace touched %d nodes, want 3: %+v", len(gathered.Nodes), gathered)
	}
	byStage := map[string][]obs.Span{}
	for _, sp := range gathered.Spans {
		byStage[sp.Stage] = append(byStage[sp.Stage], sp)
	}
	for _, want := range []string{"ingest", "forward_leg", "replicate_leg", "replicate_apply"} {
		if len(byStage[want]) == 0 {
			t.Fatalf("no %q span in trace: %+v", want, gathered.Spans)
		}
	}
	// Both the entry and the owner record an ingest span, on different
	// nodes, both keyed with the pusher identity.
	if n := len(byStage["ingest"]); n != 2 {
		t.Fatalf("%d ingest spans, want 2 (entry + owner): %+v", n, byStage["ingest"])
	}
	if a, b := byStage["ingest"][0], byStage["ingest"][1]; a.Node == b.Node {
		t.Fatalf("both ingest spans on %s, want entry and owner distinct", a.Node)
	}
	for _, sp := range byStage["ingest"] {
		if sp.Pusher != id || sp.Seq != 1 {
			t.Fatalf("ingest span missing idempotency key: %+v", sp)
		}
	}
	// The entry's ingest span chains under the client's span from the
	// wire header.
	rootSeen := false
	for _, sp := range byStage["ingest"] {
		if sp.Parent == "0000000000000001" {
			rootSeen = true
		}
	}
	if !rootSeen {
		t.Fatalf("no ingest span parented on the wire header's span: %+v", byStage["ingest"])
	}
	// The replica's apply span names the trace from the replicate leg.
	if sp := byStage["replicate_apply"][0]; sp.Trace != "00000000deadbeef" {
		t.Fatalf("replicate_apply carries trace %s, want 00000000deadbeef", sp.Trace)
	}

	// scope=local confines the answer to the queried node.
	r2, err := http.Get(nodes[entry].url + "/v1/trace/00000000deadbeef?scope=local")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var local struct {
		Nodes []string `json:"nodes"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&local); err != nil {
		t.Fatal(err)
	}
	if len(local.Nodes) != 1 || local.Nodes[0] != nodes[entry].url {
		t.Fatalf("scope=local answered for nodes %v, want just %s", local.Nodes, nodes[entry].url)
	}
}

// TestTraceEndpointValidation: malformed IDs 400, unknown IDs 404,
// and a daemon without an observer says tracing is off.
func TestTraceEndpointValidation(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 1, traced: true})
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/trace/xyz", http.StatusBadRequest},
		{"/v1/trace/", http.StatusBadRequest},
		{"/v1/trace/00000000000000ff", http.StatusNotFound}, // never recorded
	} {
		r, err := http.Get(nodes[0].url + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Fatalf("GET %s: HTTP %d, want %d", tc.path, r.StatusCode, tc.want)
		}
	}

	bare := httptest.NewServer(newServer(store.New(store.Config{}), Config{}).Handler())
	defer bare.Close()
	for _, path := range []string{"/v1/trace/00000000000000ff", "/v1/slow"} {
		r, err := http.Get(bare.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without an observer: HTTP %d, want 404", path, r.StatusCode)
		}
	}
}

// TestSlowCapture: ingests and queries land in the slow ring with
// their kind and duration, served by /v1/slow.
func TestSlowCapture(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 1, traced: true})
	prof := testProfile(t, 7)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nodes[0].url+"/v1/ingest", "application/json", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}
	q, err := http.Get(nodes[0].url + "/v1/top?tool=" + prof.Tool)
	if err != nil {
		t.Fatal(err)
	}
	q.Body.Close()

	r, err := http.Get(nodes[0].url + "/v1/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out struct {
		Slow []struct {
			Kind  string `json:"kind"`
			DurNS int64  `json:"duration_ns"`
		} `json:"slow"`
		Kept     int    `json:"kept"`
		Captured uint64 `json:"captured"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Kept < 2 || out.Captured < 2 {
		t.Fatalf("slow ring kept %d / captured %d, want both >= 2", out.Kept, out.Captured)
	}
	kinds := map[string]bool{}
	for _, e := range out.Slow {
		kinds[e.Kind] = true
		if e.DurNS <= 0 {
			t.Fatalf("slow entry with nonpositive duration: %+v", e)
		}
	}
	if !kinds["ingest"] || !kinds["query"] {
		t.Fatalf("slow ring kinds %v, want both ingest and query", kinds)
	}

	// The serving node also exposes the pipeline histograms.
	m, err := http.Get(nodes[0].url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	raw, err := io.ReadAll(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`witchd_stage_duration_seconds_count{stage="ingest"}`,
		`witchd_stage_duration_seconds_bucket{stage="query",le="+Inf"}`,
		"witchd_trace_spans_recorded_total",
		"witchd_slow_captured_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
