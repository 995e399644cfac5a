package daemon

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/store"
	"repro/witch"
)

// fakeClock is a shared, manually-advanced clock so breaker cooldowns
// elapse exactly when a test says so.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// pickOwned returns a pusher id whose owner is nodes[want].
func pickOwned(t *testing.T, nodes []*testNode, want int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("pusher-%04d", i)
		if nodes[0].srv.Cluster().Owner(id) == nodes[want].url {
			return id
		}
	}
	t.Fatal("no pusher id hashes to the wanted owner")
	return ""
}

// TestReplicaAckAfterReplicate: with RF=2 a keyed batch entering at a
// non-member is forwarded to the owner, applied on BOTH replica-set
// members before the ack, lives on exactly those two, and fleet
// queries count it once.
func TestReplicaAckAfterReplicate(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 3, rf: 2, clock: newFakeClock()})
	prof := testProfile(t, 21)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}

	const id = "replicated-pusher"
	set := nodes[0].srv.Cluster().ReplicaSet(id)
	if len(set) != 2 {
		t.Fatalf("replica set %v, want 2 members", set)
	}
	owner, follower, entry := -1, -1, -1
	for i, nd := range nodes {
		switch nd.url {
		case set[0]:
			owner = i
		case set[1]:
			follower = i
		default:
			entry = i
		}
	}

	resp := keyedIngest(t, nodes[entry].url, body.Bytes(), id, 1)
	ack1, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicated ingest: HTTP %d: %s", resp.StatusCode, ack1)
	}
	if nodes[owner].srv.batches.Load() != 1 {
		t.Fatal("owner did not coordinate the batch")
	}
	if nodes[follower].srv.replicatedIn.Load() != 1 {
		t.Fatal("follower did not apply the replication leg before the ack")
	}
	if got := nodes[follower].srv.st.Stats().Ingested; got != 1 {
		t.Fatalf("follower store holds %d profiles, want 1", got)
	}
	if len(nodes[entry].srv.st.Export(0).Parts) != 0 {
		t.Fatal("non-member entry node kept a copy")
	}
	if os, fs := nodes[owner].srv.partitionSum(id), nodes[follower].srv.partitionSum(id); os != fs {
		t.Fatalf("replica checksums diverge after ack: %s vs %s", os, fs)
	}

	// Duplicate retry re-acks byte-identically and does not re-fanout.
	resp2 := keyedIngest(t, nodes[entry].url, body.Bytes(), id, 1)
	ack2, _ := io.ReadAll(resp2.Body)
	if resp2.Header.Get("X-Witch-Duplicate") != "window" || !bytes.Equal(ack1, ack2) {
		t.Fatalf("duplicate not re-acked identically: dup=%q", resp2.Header.Get("X-Witch-Duplicate"))
	}
	if got := nodes[follower].srv.st.Stats().Ingested; got != 1 {
		t.Fatalf("duplicate re-replicated: follower holds %d", got)
	}

	// Fleet queries from every node see the batch exactly once.
	for i, nd := range nodes {
		r, err := http.Get(nd.url + "/v1/top?tool=" + prof.Tool)
		if err != nil {
			t.Fatal(err)
		}
		var top struct {
			Waste float64 `json:"waste"`
		}
		if err := jsonDecode(r.Body, &top); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK || r.Header.Get("X-Witch-Incomplete") != "" {
			t.Fatalf("node %d fleet query: HTTP %d incomplete=%q", i, r.StatusCode, r.Header.Get("X-Witch-Incomplete"))
		}
		if top.Waste != prof.Waste {
			t.Fatalf("node %d counted the replicated batch %v times the waste", i, top.Waste/prof.Waste)
		}
	}
}

// TestHintedHandoffAndDrain: a dead follower does not block acks — the
// coordinator journals durable hints instead — queries from survivors
// stay complete (down peers < RF cannot hide keyed data), and healing
// the follower drains the hints until both replicas are checksum-equal.
func TestHintedHandoffAndDrain(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestRing(t, ringOptions{n: 2, rf: 2, hints: true, clock: clock})
	prof := testProfile(t, 22)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	id := pickOwned(t, nodes, 0)
	a, b := nodes[0], nodes[1]

	b.down.Store(true)
	for seq := uint64(1); seq <= 3; seq++ {
		if resp := keyedIngest(t, a.url, body.Bytes(), id, seq); resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d with follower down: HTTP %d, want hint-backed 200", seq, resp.StatusCode)
		}
	}
	rs := a.srv.ReplicationStats()
	if rs.HintsQueued != 3 || rs.HintsPending != 3 {
		t.Fatalf("hints not queued: %+v", rs)
	}
	if b.srv.st.Stats().Ingested != 0 {
		t.Fatal("down follower somehow received batches")
	}

	// One unreachable peer < RF: the survivor's answer is complete.
	r, err := http.Get(a.url + "/v1/top?tool=" + prof.Tool)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || r.Header.Get("X-Witch-Incomplete") != "" {
		t.Fatalf("survivor query: HTTP %d incomplete=%q — one down peer under RF=2 must not degrade", r.StatusCode, r.Header.Get("X-Witch-Incomplete"))
	}

	// Heal, let the breaker cooldown lapse, drain.
	b.down.Store(false)
	clock.Advance(5 * time.Second)
	a.srv.DrainHintsNow(context.Background())
	rs = a.srv.ReplicationStats()
	if rs.HintsPending != 0 || rs.HintsReplayed != 3 {
		t.Fatalf("drain incomplete: %+v", rs)
	}
	if got := b.srv.replicatedIn.Load(); got != 3 {
		t.Fatalf("follower applied %d replayed hints, want 3", got)
	}
	if as, bs := a.srv.partitionSum(id), b.srv.partitionSum(id); as != bs {
		t.Fatalf("replicas diverge after drain: %s vs %s", as, bs)
	}
}

// TestPromotedFollowerReacksDuplicates is the torn-retry matrix for a
// dead owner: a forwarded retry of an already-replicated sequence must
// be re-acked by the promoted follower from its own dedup window — not
// re-merged — and fresh sequences keep flowing with the dead owner
// hinted.
func TestPromotedFollowerReacksDuplicates(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestRing(t, ringOptions{n: 2, rf: 2, hints: true, clock: clock})
	prof := testProfile(t, 23)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	id := pickOwned(t, nodes, 0)
	a, b := nodes[0], nodes[1]

	// Healthy write: seq 1 lands on both members.
	if resp := keyedIngest(t, a.url, body.Bytes(), id, 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: HTTP %d", resp.StatusCode)
	}
	if b.srv.replicatedIn.Load() != 1 {
		t.Fatal("seq 1 not replicated to the follower")
	}

	// Owner dies. The first retry through the follower still forwards
	// (the breaker has no verdict yet) and relays the owner's 503 —
	// which opens the breaker.
	a.down.Store(true)
	if resp := keyedIngest(t, b.url, body.Bytes(), id, 1); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first retry with dead owner: HTTP %d, want relayed 503", resp.StatusCode)
	}
	// The next retry finds the breaker open: the follower promotes
	// itself and re-acks from its replicated dedup window.
	resp := keyedIngest(t, b.url, body.Bytes(), id, 1)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Witch-Duplicate") != "window" {
		t.Fatalf("promoted follower retry: HTTP %d dup=%q, want 200 re-ack", resp.StatusCode, resp.Header.Get("X-Witch-Duplicate"))
	}
	if got := b.srv.st.Stats().Ingested; got != 1 {
		t.Fatalf("promoted follower re-merged the duplicate: %d profiles", got)
	}

	// Fresh sequences coordinate at the follower, hinting the dead owner.
	if resp := keyedIngest(t, b.url, body.Bytes(), id, 2); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh seq at promoted follower: HTTP %d", resp.StatusCode)
	}
	if rs := b.srv.ReplicationStats(); rs.HintsPending != 1 {
		t.Fatalf("dead owner not hinted: %+v", rs)
	}

	// Owner returns; the hint drain completes the set.
	a.down.Store(false)
	clock.Advance(5 * time.Second)
	b.srv.DrainHintsNow(context.Background())
	if a.srv.replicatedIn.Load() != 1 {
		t.Fatal("returned owner did not receive the hinted batch")
	}
	if as, bs := a.srv.partitionSum(id), b.srv.partitionSum(id); as != bs {
		t.Fatalf("replicas diverge after owner return: %s vs %s", as, bs)
	}
}

// TestAntiEntropyRepair: a replica missing a partition entirely (blank
// replacement) pulls it from a peer and converges to checksum
// equality; at equal sequence but divergent state the owner's copy
// wins, counted as a conflict.
func TestAntiEntropyRepair(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestRing(t, ringOptions{n: 2, rf: 2, clock: clock})
	prof := testProfile(t, 24)
	ctx := context.Background()
	a, b := nodes[0], nodes[1]

	// Divergence: A holds a partition B has no trace of.
	const id = "repair-pusher"
	a.srv.st.IngestKeyedAt(id, prof, clock.Now())
	a.srv.ded.Mark(id, 1)

	b.srv.RepairNow(ctx)
	rs := b.srv.ReplicationStats()
	if rs.RepairRounds != 1 || rs.RepairPulls != 1 {
		t.Fatalf("repair did not pull the missing partition: %+v", rs)
	}
	if as, bs := a.srv.partitionSum(id), b.srv.partitionSum(id); as != bs {
		t.Fatalf("repair did not converge: %s vs %s", as, bs)
	}
	if max, _ := b.srv.ded.WindowOf(id); max != 1 {
		t.Fatalf("repair did not adopt the dedup window: max=%d", max)
	}
	// A second round finds nothing to do.
	b.srv.RepairNow(ctx)
	if rs := b.srv.ReplicationStats(); rs.RepairPulls != 1 {
		t.Fatalf("repair re-pulled a converged partition: %+v", rs)
	}

	// Conflict: same max sequence, different merged state. The node
	// later in the preference list adopts the owner's copy.
	const id2 = "conflict-pusher"
	prof2 := testProfile(t, 25)
	a.srv.st.IngestKeyedAt(id2, prof, clock.Now())
	a.srv.ded.Mark(id2, 1)
	b.srv.st.IngestKeyedAt(id2, prof2, clock.Now())
	b.srv.ded.Mark(id2, 1)
	ownNode, followNode := a, b
	if a.srv.Cluster().Owner(id2) != a.url {
		ownNode, followNode = b, a
	}
	wantSum := ownNode.srv.partitionSum(id2)

	followNode.srv.RepairNow(ctx)
	ownNode.srv.RepairNow(ctx)
	if got := followNode.srv.partitionSum(id2); got != wantSum {
		t.Fatalf("conflict did not resolve owner-wins: %s vs %s", got, wantSum)
	}
	if got := ownNode.srv.partitionSum(id2); got != wantSum {
		t.Fatal("owner adopted the follower's conflicting copy")
	}
	var conflicts uint64
	for _, nd := range nodes {
		conflicts += nd.srv.ReplicationStats().RepairConflicts
	}
	if conflicts != 1 {
		t.Fatalf("divergence not counted as a conflict: %d", conflicts)
	}
}

// TestDigestMatchesNoCache: anti-entropy digests read the store's
// all-time export. A node whose export is memoized and a NoCache twin
// fed the same history — keyed batches across live buckets and the
// rollup, one unkeyed batch, a pusher only the dedup table knows, an
// adopted partition image, and a late batch — give equal digests at
// every step, and neither lists the anonymous partition.
func TestDigestMatchesNoCache(t *testing.T) {
	open := func(noCache bool) *Server {
		const self = "http://digest.test"
		node, err := OpenNode(NodeConfig{
			Store:       store.Config{Window: time.Minute, Buckets: 2, NoCache: noCache},
			Cluster:     &cluster.Config{Self: self, Peers: []string{self, "http://127.0.0.1:1"}, ReplicationFactor: 2},
			Replication: ReplicationConfig{DrainInterval: time.Hour, RepairInterval: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Kill)
		return node.Server()
	}
	cached, oracle := open(false), open(true)
	nodes := []*Server{cached, oracle}
	base := time.Unix(1700000000, 0)
	profs := []*witch.Profile{testProfile(t, 31), testProfile(t, 32), testProfile(t, 33)}
	for _, srv := range nodes {
		for i, at := range []time.Duration{0, time.Minute, 3 * time.Minute} {
			srv.st.IngestKeyedAt("p0", profs[i], base.Add(at))
			srv.ded.Mark("p0", uint64(i+1))
		}
		srv.st.IngestKeyedAt("p1", profs[1], base.Add(time.Minute))
		srv.ded.Mark("p1", 1)
		srv.st.IngestAt(profs[2], base.Add(3*time.Minute))
		srv.ded.Mark("ghost", 7)
	}
	check := func(step string) map[string]cluster.DigestEntry {
		t.Helper()
		got, want := cached.digestLocal(), oracle.digestLocal()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: cached digest %v, NoCache digest %v", step, got, want)
		}
		if _, ok := got[""]; ok {
			t.Fatalf("%s: digest lists the anonymous partition", step)
		}
		return got
	}
	d := check("seeded")
	if d["p0"].N != 3 || d["p0"].Max != 3 || d["p1"].N != 1 {
		t.Fatalf("digest rows %+v, want p0 N=3 Max=3 and p1 N=1", d)
	}
	if g := d["ghost"]; g.N != 0 || g.Max != 7 || g.Sum != cached.partitionSum("never-seen") {
		t.Fatalf("dedup-only pusher row %+v, want N=0 Max=7 and the empty partition's sum", g)
	}
	check("memoized")
	for _, srv := range nodes {
		srv.st.ReplacePartition("p1", srv.st.PartitionImage("p0"))
	}
	if got, want := cached.digestEntry("p1"), oracle.digestEntry("p1"); got != want || got.Sum != d["p0"].Sum {
		t.Fatalf("adopted row: cached %+v, NoCache %+v, want p0's sum %s", got, want, d["p0"].Sum)
	}
	check("adopted")
	for _, srv := range nodes {
		srv.st.IngestKeyedAt("p0", profs[2], base.Add(4*time.Minute))
	}
	check("late batch")
}

// TestRepairRejectsStatelessBucket: a partition transfer whose bucket
// has no State (the encoding has a presence flag, so a peer can send
// one) is a repair error, not an adoption. ReplacePartition would dereference
// the missing State, and in witchd that panic kills the node from its
// repair goroutine.
func TestRepairRejectsStatelessBucket(t *testing.T) {
	repairRejects(t, "stateless bucket", transfer(&store.PartitionImage{
		WindowNanos: int64(time.Minute),
		Buckets:     []store.PartitionBucket{{StartUnixNano: time.Unix(1700000000, 0).UnixNano()}},
	}))
}

// TestRepairRejectsGobTransfer: a peer on an older build answers the
// repair pull with a gob-encoded transfer. Its bytes fail the binary
// decoder's magic, and the pull counts as a repair error.
func TestRepairRejectsGobTransfer(t *testing.T) {
	src := store.New(store.Config{Window: time.Minute, Buckets: 4})
	src.IngestKeyedAt("p", witch.NewProfile(witch.Profile{Program: "prog", Tool: "dead", Waste: 3, Use: 1}, []witch.Pair{
		{Src: "a", Dst: "b", Chain: "a->b", Waste: 1, Use: 0.5},
	}), time.Unix(1700000000, 0))
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&cluster.PartitionTransfer{DedupMax: 1, Image: src.PartitionImage("p")}); err != nil {
		t.Fatal(err)
	}
	repairRejects(t, "gob transfer", body.Bytes())
}

// transfer is the binary transfer a peer sends for img.
func transfer(img *store.PartitionImage) []byte {
	return (&cluster.PartitionTransfer{DedupMax: 1, Image: img}).AppendBinary(nil)
}

// TestRepairRejectsMisorderedImage: a partition transfer holding a
// State that breaks the agg.State order contract — in a bucket or in
// the rollup, misordered or with a key twice — is a repair error, not
// an adoption. The store adopts image States as sorted bases and merges
// them linearly, so an unchecked one would silently mis-merge: rows
// summed under the wrong key or held twice.
func TestRepairRejectsMisorderedImage(t *testing.T) {
	src := store.New(store.Config{Window: time.Minute, Buckets: 4})
	start := time.Unix(1700000000, 0)
	for i := 0; i < 3; i++ {
		src.IngestKeyedAt("p", witch.NewProfile(witch.Profile{Program: "prog", Tool: "dead", Waste: 3, Use: 1}, []witch.Pair{
			{Src: "a", Dst: "b", Chain: "a->b", Waste: 1, Use: 0.5},
			{Src: "c", Dst: "d", Chain: "c->d", Waste: 2, Use: 0.5},
		}), start)
	}
	good := src.PartitionImage("p").Buckets[0].State
	swapped := &agg.State{Metas: good.Metas, Pairs: []agg.PairState{good.Pairs[1], good.Pairs[0]}}
	twice := &agg.State{Metas: good.Metas, Pairs: []agg.PairState{good.Pairs[0], good.Pairs[0]}}
	bucket := func(st *agg.State) []store.PartitionBucket {
		return []store.PartitionBucket{{StartUnixNano: start.UnixNano(), State: st}}
	}
	repairRejects(t, "misordered bucket", transfer(&store.PartitionImage{WindowNanos: int64(time.Minute), Buckets: bucket(swapped)}))
	repairRejects(t, "duplicate-key bucket", transfer(&store.PartitionImage{WindowNanos: int64(time.Minute), Buckets: bucket(twice)}))
	repairRejects(t, "duplicate-key rollup", transfer(&store.PartitionImage{WindowNanos: int64(time.Minute), Buckets: bucket(good), Rollup: twice}))
}

// repairRejects runs one repair round against a peer that answers the
// pull for a pusher this node lacks with body, and requires the
// transfer to be counted as a repair error and leave the store empty.
func repairRejects(t *testing.T, name string, body []byte) {
	t.Helper()
	const id = "rejected-pusher"
	const self = "http://repairer.test"
	var ring string
	peer := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/digest":
			json.NewEncoder(w).Encode(cluster.Digest{Ring: ring, Pushers: map[string]cluster.DigestEntry{id: {Max: 1, N: 1, Sum: "x"}}})
		case "/v1/shard":
			w.Write(body)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	peerURL := "http://" + peer.Listener.Addr().String()
	node, err := OpenNode(NodeConfig{
		Cluster:     &cluster.Config{Self: self, Peers: []string{self, peerURL}, ReplicationFactor: 2},
		Replication: ReplicationConfig{DrainInterval: time.Hour, RepairInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Kill)
	srv := node.Server()
	ring = srv.Cluster().RingHash()
	peer.Start()
	t.Cleanup(peer.Close)

	srv.RepairNow(context.Background())
	if rs := srv.ReplicationStats(); rs.RepairPulls != 0 || rs.RepairErrors != 1 {
		t.Fatalf("%s: %+v, want no pull and one repair error", name, rs)
	}
	if parts := srv.st.Export(0).Parts; len(parts) != 0 {
		t.Fatalf("%s: rejected transfer left %d partitions in the store", name, len(parts))
	}
}

// TestRingMismatchRejected: an inter-node request stamped with a
// different ring hash is refused with 409 before any state changes,
// the rejection is counted, and the ring hash is visible in /v1/healthz
// and /metrics.
func TestRingMismatchRejected(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 2})
	prof := testProfile(t, 26)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"/v1/ingest", "/v1/replicate"} {
		req, err := http.NewRequest(http.MethodPost, nodes[0].url+path, bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(cluster.RingHeader, "deadbeefdeadbeef")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s with skewed ring: HTTP %d, want 409", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, nodes[0].url+"/v1/digest", nil)
	req.Header.Set(cluster.RingHeader, "deadbeefdeadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("digest with skewed ring: HTTP %d, want 409", resp.StatusCode)
	}
	if got := nodes[0].srv.ringMismatches.Load(); got != 3 {
		t.Fatalf("ring mismatches counted %d, want 3", got)
	}
	if got := nodes[0].srv.st.Stats().Ingested; got != 0 {
		t.Fatal("a ring-mismatched batch was merged")
	}

	// The matching ring (and no ring at all — pushers) pass.
	if resp := keyedIngest(t, nodes[0].url, body.Bytes(), "ring-pusher", 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("ringless pusher ingest: HTTP %d", resp.StatusCode)
	}

	ring := nodes[0].srv.Cluster().RingHash()
	hr, err := http.Get(nodes[0].url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if !strings.Contains(string(hb), ring) {
		t.Fatalf("/v1/healthz does not expose the ring hash %s:\n%s", ring, hb)
	}
	mr, err := http.Get(nodes[0].url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mb), "witchd_ring_mismatches_total 3") {
		t.Fatalf("metrics missing ring mismatch counter:\n%s", mb)
	}
}

// TestMetricsSortedStableOrder: /metrics is valid Prometheus text
// exposition — every family led by # HELP and # TYPE, families in
// sorted name order, every sample belonging to the family above it —
// and a second scrape with unchanged counters is byte-identical, so
// scrapes diff textually and dashboards never see keys move.
func TestMetricsSortedStableOrder(t *testing.T) {
	nodes := newTestRing(t, ringOptions{n: 2, rf: 2, clock: newFakeClock()})
	scrape := func() (string, string) {
		r, err := http.Get(nodes[0].url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		text, _ := io.ReadAll(r.Body)
		return string(text), r.Header.Get("Content-Type")
	}
	text, ctype := scrape()
	if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
		t.Fatalf("content type %q, want %q", ctype, want)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) < 40 {
		t.Fatalf("suspiciously few metrics lines: %d", len(lines))
	}
	// Walk the exposition: HELP then TYPE then >=1 samples per family,
	// family names strictly increasing.
	prevFam := ""
	for i := 0; i < len(lines); {
		if !strings.HasPrefix(lines[i], "# HELP ") {
			t.Fatalf("line %d: family must open with # HELP, got %q", i, lines[i])
		}
		fam := strings.Fields(lines[i])[2]
		if fam <= prevFam {
			t.Fatalf("family %q not after %q: families must be sorted", fam, prevFam)
		}
		prevFam = fam
		i++
		if i >= len(lines) || !strings.HasPrefix(lines[i], "# TYPE "+fam+" ") {
			t.Fatalf("family %q missing # TYPE after # HELP", fam)
		}
		i++
		samples := 0
		for i < len(lines) && !strings.HasPrefix(lines[i], "# ") {
			name := lines[i]
			if j := strings.IndexAny(name, "{ "); j >= 0 {
				name = name[:j]
			}
			// Histogram families also emit name_bucket/_sum/_count.
			if name != fam && !strings.HasPrefix(name, fam+"_") {
				t.Fatalf("sample %q under family %q", lines[i], fam)
			}
			samples++
			i++
		}
		if samples == 0 {
			t.Fatalf("family %q has metadata but no samples", fam)
		}
	}
	for _, want := range []string{
		"witchd_cluster_replication_factor 2",
		"witchd_hints_pending 0",
		"witchd_repair_rounds_total 0",
		"witchd_ingest_replicated_in_total 0",
		`witchd_build_info{go="`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	again, _ := scrape()
	if again != text {
		t.Fatalf("two quiescent scrapes differ:\n--- first\n%s\n--- second\n%s", text, again)
	}
}

// TestDedupTombstoneBounds: the tombstone table is bounded by the
// pusher cap no matter how many pushers churn through — eviction GC
// must not let dead pushers' residue grow without bound.
func TestDedupTombstoneBounds(t *testing.T) {
	d := NewDedup(64, 4)
	apply := func(commit func()) error { commit(); return nil }
	for p := 0; p < 100; p++ {
		d.Process(fmt.Sprintf("churner-%d", p), 1, apply)
	}
	st := d.Stats()
	if st.Pushers > 4 {
		t.Fatalf("live windows %d exceed the cap 4", st.Pushers)
	}
	if st.Tombstones > 4 {
		t.Fatalf("tombstones %d grew past the cap 4 (GC bound broken)", st.Tombstones)
	}
	if st.EvictedPushers < 90 {
		t.Fatalf("churn did not evict: %+v", st)
	}
}

// jsonDecode decodes JSON from r into v (helper kept tiny so tests
// read linearly).
func jsonDecode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	return dec.Decode(v)
}

// TestRepairPrefersFullerCopyAtEqualMax: a node that restarted blank
// and caught only mid-sequence hint replays can tie the survivor's max
// sequence while holding a fraction of the batches. Repair must move
// the fuller copy toward the holey one — even when the holey node is
// the partition's owner — never the reverse.
func TestRepairPrefersFullerCopyAtEqualMax(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestRing(t, ringOptions{n: 2, rf: 2, clock: clock})
	prof := testProfile(t, 27)
	ctx := context.Background()

	// The owner holds the incomplete copy: one merge at the shared
	// frontier seq 3. The follower holds all three.
	const id = "holey-pusher"
	holey, full := nodes[0], nodes[1]
	if nodes[0].srv.Cluster().Owner(id) != nodes[0].url {
		holey, full = nodes[1], nodes[0]
	}
	holey.srv.st.IngestKeyedAt(id, prof, clock.Now())
	holey.srv.ded.Mark(id, 3)
	for seq := uint64(1); seq <= 3; seq++ {
		full.srv.st.IngestKeyedAt(id, prof, clock.Now())
		full.srv.ded.Mark(id, seq)
	}
	wantSum := full.srv.partitionSum(id)

	// The full follower must not adopt the owner's subset...
	full.srv.RepairNow(ctx)
	if got := full.srv.partitionSum(id); got != wantSum {
		t.Fatalf("full copy adopted the owner's holey subset: %s vs %s", got, wantSum)
	}
	if rs := full.srv.ReplicationStats(); rs.RepairPulls != 0 {
		t.Fatalf("follower pulled despite holding the fuller copy: %+v", rs)
	}
	// ...and the holey owner must pull the fuller copy.
	holey.srv.RepairNow(ctx)
	if rs := holey.srv.ReplicationStats(); rs.RepairPulls != 1 {
		t.Fatalf("owner did not pull the fuller copy: %+v", rs)
	}
	if got := holey.srv.partitionSum(id); got != wantSum {
		t.Fatalf("owner did not converge on the fuller copy: %s vs %s", got, wantSum)
	}
}

// stalledApply is a node whose keyed batches stall mid-apply: it
// coordinates in a two-peer RF=2 ring whose other member is a fake
// follower that holds every /v1/replicate leg until unblock is called.
// A batch posted through the node's handler is then inside serveBatch
// — past the dedup check, holding its pusher's window lock, in the
// fanout that precedes the journal commit — for as long as a test
// wants, exactly where a slow replica leaves it in production.
type stalledApply struct {
	srv     *Server
	h       http.Handler
	started chan struct{} // closed when the first replicate leg arrives
	unblock func()
}

func newStalledApply(t *testing.T, cfg NodeConfig) *stalledApply {
	t.Helper()
	sa := &stalledApply{started: make(chan struct{})}
	release := make(chan struct{})
	var startOnce, releaseOnce sync.Once
	sa.unblock = func() { releaseOnce.Do(func() { close(release) }) }
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replicate" {
			startOnce.Do(func() { close(sa.started) })
			<-release
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(follower.Close)
	t.Cleanup(sa.unblock) // before follower.Close, which waits for the held leg
	const self = "http://stalled.test"
	cfg.Cluster = &cluster.Config{Self: self, Peers: []string{self, follower.URL}, ReplicationFactor: 2}
	cfg.Replication = ReplicationConfig{DrainInterval: time.Hour, RepairInterval: -1}
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Kill)
	sa.srv, sa.h = node.Server(), node.Handler()
	return sa
}

// post sends one keyed batch through the node's handler in the
// background; the channel yields its status code.
func (sa *stalledApply) post(body []byte, id string, seq uint64) <-chan int {
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(witch.PusherIDHeader, id)
	req.Header.Set(witch.PusherSeqHeader, fmt.Sprint(seq))
	code := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		sa.h.ServeHTTP(rec, req)
		code <- rec.Code
	}()
	return code
}

// TestAdoptIngestAvoidsDeadlock is the ABBA regression for repair
// adoption vs ingest on a persistent node. Ingest holds the pusher's
// dedup window lock across its whole apply — including the (slow)
// replication fanout — before taking the apply barrier's read side;
// adoption must therefore take the window lock BEFORE the barrier's
// write side. The old order (barrier first, window lock inside)
// deadlocked permanently against any in-flight batch for the same
// pusher, with the apply write lock held and every other ingest wedged
// behind it.
func TestAdoptIngestAvoidsDeadlock(t *testing.T) {
	clock := newFakeClock()
	sa := newStalledApply(t, NodeConfig{Server: Config{Now: clock.Now}, DataDir: t.TempDir()})
	srv := sa.srv
	prof := testProfile(t, 31)
	var body bytes.Buffer
	prof.WriteJSON(&body)
	id := ownedID(t, sa.srv, "deadlock-pusher")
	donor := store.New(store.Config{})
	donor.IngestKeyedAt(id, prof, clock.Now())
	pt := &cluster.PartitionTransfer{Image: donor.PartitionImage(id), DedupMax: 5}

	ingDone := sa.post(body.Bytes(), id, 1)
	<-sa.started // window lock held from here on

	adoptDone := make(chan struct{})
	go func() {
		srv.adoptPartition(id, pt)
		close(adoptDone)
	}()
	// Give adoption time to reach whatever it blocks on, then release
	// the in-flight batch. Under the broken lock order neither goroutine
	// can ever finish.
	time.Sleep(50 * time.Millisecond)
	sa.unblock()

	timeout := time.After(10 * time.Second)
	select {
	case code := <-ingDone:
		if code != http.StatusOK {
			t.Fatalf("in-flight ingest: HTTP %d", code)
		}
	case <-timeout:
		t.Fatal("ingest wedged against adoption: ABBA deadlock")
	}
	select {
	case <-adoptDone:
	case <-timeout:
		t.Fatal("adoption wedged against ingest: ABBA deadlock")
	}
	if max, _ := srv.ded.WindowOf(id); max != 5 {
		t.Fatalf("adopted dedup window max %d, want 5", max)
	}
}

// TestMemoryAdoptBarrier: a memory-only node (no journal) must still
// exclude an in-flight batch from a partition swap — the old code
// called ReplacePartition unguarded, so a concurrent ingest could merge
// into the aggregator just as it was deleted, losing an acked batch
// while its dedup mark survived. The batch runs through serveBatch,
// and so does a second one for another pusher while the test holds the
// barrier's write side the way adoption does: a memory-only apply that
// skipped the barrier would land under it.
func TestMemoryAdoptBarrier(t *testing.T) {
	clock := newFakeClock()
	sa := newStalledApply(t, NodeConfig{Server: Config{Now: clock.Now}})
	srv := sa.srv

	prof := testProfile(t, 32)
	var body bytes.Buffer
	prof.WriteJSON(&body)
	id := ownedID(t, sa.srv, "mem-adopt-pusher")
	donor := store.New(store.Config{})
	donor.IngestKeyedAt(id, prof, clock.Now())
	donorSrv := newServer(donor, Config{Now: clock.Now})
	wantSum := donorSrv.partitionSum(id)
	pt := &cluster.PartitionTransfer{Image: donor.PartitionImage(id), DedupMax: 5}

	ingDone := sa.post(body.Bytes(), id, 1)
	<-sa.started

	adoptDone := make(chan struct{})
	go func() {
		srv.adoptPartition(id, pt)
		close(adoptDone)
	}()
	select {
	case <-adoptDone:
		t.Fatal("adoption completed while a batch for the same pusher was mid-apply")
	case <-time.After(50 * time.Millisecond):
	}
	sa.unblock()
	if code := <-ingDone; code != http.StatusOK {
		t.Fatalf("in-flight ingest: HTTP %d", code)
	}
	select {
	case <-adoptDone:
	case <-time.After(10 * time.Second):
		t.Fatal("adoption never completed after the batch applied")
	}
	// Adoption ran strictly after the in-flight merge: the adopted
	// image replaces it wholesale, and the window adopts the higher max.
	if got := srv.partitionSum(id); got != wantSum {
		t.Fatalf("partition %s after adopt, want the adopted image %s", got, wantSum)
	}
	if max, _ := srv.ded.WindowOf(id); max != 5 {
		t.Fatalf("adopted dedup window max %d, want 5", max)
	}

	other := ownedID(t, sa.srv, "mem-barrier-pusher")
	before := srv.st.Stats().Ingested
	srv.applyMu.Lock()
	held := sa.post(body.Bytes(), other, 1)
	select {
	case code := <-held:
		srv.applyMu.Unlock()
		t.Fatalf("memory-only apply finished (HTTP %d) under the barrier's write side", code)
	case <-time.After(50 * time.Millisecond):
	}
	merged := srv.st.Stats().Ingested != before
	srv.applyMu.Unlock()
	if merged {
		t.Fatal("memory-only apply merged under the barrier's write side")
	}
	if code := <-held; code != http.StatusOK {
		t.Fatalf("apply after the barrier lifted: HTTP %d", code)
	}
}

// TestQueryPrefersHintHolder: while hints are undrained, a hinted
// batch's RF "copies" both live on the hinter. A healed destination
// with the better preference rank must NOT be chosen as the pusher's
// query holder over the hinter — the hinter's copy is a strict
// superset — and the answer stays complete (one hinter holds
// everything).
func TestQueryPrefersHintHolder(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestRing(t, ringOptions{n: 2, rf: 2, hints: true, clock: clock})
	prof := testProfile(t, 33)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	id := pickOwned(t, nodes, 0)
	o, f := nodes[0], nodes[1]

	// seq 1 lands on both. Then the owner dies and the follower
	// coordinates seqs 2 and 3 with hints queued for the owner.
	if resp := keyedIngest(t, o.url, body.Bytes(), id, 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: HTTP %d", resp.StatusCode)
	}
	o.down.Store(true)
	if resp := keyedIngest(t, f.url, body.Bytes(), id, 2); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first attempt should relay the dead owner's 503, got %d", resp.StatusCode)
	}
	for seq := uint64(2); seq <= 3; seq++ {
		if resp := keyedIngest(t, f.url, body.Bytes(), id, seq); resp.StatusCode != http.StatusOK {
			t.Fatalf("promoted seq %d: HTTP %d", seq, resp.StatusCode)
		}
	}
	// The owner returns, breakers cool, but the hints have NOT drained:
	// the owner's partition is stale (seq 1 only), the follower holds
	// seqs 1-3 plus the owner's hints.
	o.down.Store(false)
	clock.Advance(20 * time.Second)
	if rs := f.srv.ReplicationStats(); rs.HintsPending != 2 {
		t.Fatalf("test premise broken: %d hints pending, want 2", rs.HintsPending)
	}

	want := fetchProfile(t, f.url+"/v1/profile?tool="+prof.Tool+"&scope=local")
	for name, nd := range map[string]*testNode{"owner": o, "follower": f} {
		r, err := http.Get(nd.url + "/v1/profile?tool=" + prof.Tool)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s fleet query: HTTP %d", name, r.StatusCode)
		}
		if inc := r.Header.Get("X-Witch-Incomplete"); inc != "" {
			t.Fatalf("%s fleet query marked incomplete (%q): a single hinter holds everything", name, inc)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s fleet query chose the stale healed owner over the hint holder:\ngot  %s\nwant %s", name, got, want)
		}
	}
}

// fetchProfile GETs a profile endpoint and returns the body.
func fetchProfile(t *testing.T, url string) []byte {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	b, _ := io.ReadAll(r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, r.StatusCode, b)
	}
	return b
}

// TestQueryDivergedHintersMarkedIncomplete: when BOTH replicas hold
// undrained hints for the same pusher (each coordinated while the
// other looked down), neither copy subsumes the other, so the query
// must stop claiming completeness and name both peers.
func TestQueryDivergedHintersMarkedIncomplete(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestRing(t, ringOptions{n: 2, rf: 2, hints: true, clock: clock})
	prof := testProfile(t, 34)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	id := pickOwned(t, nodes, 0)
	o, f := nodes[0], nodes[1]

	// Owner down: the follower coordinates seq 1, hinting the owner.
	o.down.Store(true)
	if resp := keyedIngest(t, f.url, body.Bytes(), id, 1); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first attempt should relay the dead owner's 503, got %d", resp.StatusCode)
	}
	if resp := keyedIngest(t, f.url, body.Bytes(), id, 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted seq 1: HTTP %d", resp.StatusCode)
	}
	// Flip: owner back, follower down; the owner coordinates seq 2,
	// hinting the follower. Now each holds a batch the other lacks.
	o.down.Store(false)
	f.down.Store(true)
	clock.Advance(20 * time.Second)
	if resp := keyedIngest(t, o.url, body.Bytes(), id, 2); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner seq 2 with follower down: HTTP %d", resp.StatusCode)
	}
	f.down.Store(false)
	clock.Advance(20 * time.Second)

	urls := []string{o.url, f.url}
	sort.Strings(urls)
	wantInc := strings.Join(urls, ",")
	r, err := http.Get(o.url + "/v1/profile?tool=" + prof.Tool)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if got := r.Header.Get("X-Witch-Incomplete"); got != wantInc {
		t.Fatalf("diverged hinters: X-Witch-Incomplete=%q, want %q", got, wantInc)
	}
	// Draining both sides restores a complete, converged answer.
	o.srv.DrainHintsNow(context.Background())
	f.srv.DrainHintsNow(context.Background())
	r2, err := http.Get(o.url + "/v1/profile?tool=" + prof.Tool)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if got := r2.Header.Get("X-Witch-Incomplete"); got != "" {
		t.Fatalf("still incomplete after both drains: %q", got)
	}
	if os, fs := o.srv.partitionSum(id), f.srv.partitionSum(id); os != fs {
		t.Fatalf("replicas did not converge after drains: %s vs %s", os, fs)
	}
}

// TestFanoutPermanentRejectionNotHinted: a follower that durably 400s
// a replication leg must not get that batch hinted — the hint could
// never land and would pin the peer's queue head forever. The batch
// still acks on the coordinator's durability and the rejection is
// counted.
func TestFanoutPermanentRejectionNotHinted(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestRing(t, ringOptions{n: 2, rf: 2, hints: true, clock: clock})
	prof := testProfile(t, 35)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	id := pickOwned(t, nodes, 0)
	o, f := nodes[0], nodes[1]

	f.reject.Store(true)
	if resp := keyedIngest(t, o.url, body.Bytes(), id, 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest with rejecting follower: HTTP %d, want 200 on local durability", resp.StatusCode)
	}
	rs := o.srv.ReplicationStats()
	if rs.ReplicateRejected != 1 {
		t.Fatalf("rejection not counted: %+v", rs)
	}
	if rs.HintsQueued != 0 || rs.HintsPending != 0 {
		t.Fatalf("a durably rejected leg was hinted: %+v", rs)
	}
	if f.srv.st.Stats().Ingested != 0 {
		t.Fatal("rejecting follower somehow merged the batch")
	}
}

// TestDrainSkipsPermanentlyRejectedHints: a hint the healed peer
// durably 400s is retired (counted) instead of wedging the queue —
// and hints queued behind it still flow once the peer behaves.
func TestDrainSkipsPermanentlyRejectedHints(t *testing.T) {
	clock := newFakeClock()
	nodes := newTestRing(t, ringOptions{n: 2, rf: 2, hints: true, clock: clock})
	prof := testProfile(t, 36)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	id := pickOwned(t, nodes, 0)
	o, f := nodes[0], nodes[1]
	ctx := context.Background()

	// Two hints queue while the follower is down.
	f.down.Store(true)
	for seq := uint64(1); seq <= 2; seq++ {
		if resp := keyedIngest(t, o.url, body.Bytes(), id, seq); resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d with follower down: HTTP %d", seq, resp.StatusCode)
		}
	}
	if rs := o.srv.ReplicationStats(); rs.HintsPending != 2 {
		t.Fatalf("hints not queued: %+v", rs)
	}

	// The follower heals into a rejecting state. Each 400 also opens
	// the breaker (threshold 1), so clear the cooldown between sweeps;
	// the point is that the queue ADVANCES past each rejected hint
	// instead of wedging on the first one forever.
	f.down.Store(false)
	f.reject.Store(true)
	clock.Advance(20 * time.Second)
	o.srv.DrainHintsNow(ctx)
	clock.Advance(20 * time.Second)
	o.srv.DrainHintsNow(ctx)
	rs := o.srv.ReplicationStats()
	if rs.HintsPending != 0 || rs.HintsRejected != 2 || rs.HintsReplayed != 0 {
		t.Fatalf("rejected hints did not retire: %+v", rs)
	}
	if f.srv.st.Stats().Ingested != 0 {
		t.Fatal("rejecting follower somehow merged a hint")
	}

	// The queue is not poisoned: a later hint drains normally once the
	// follower behaves.
	f.reject.Store(false)
	if resp := keyedIngest(t, o.url, body.Bytes(), id, 3); resp.StatusCode != http.StatusOK {
		t.Fatalf("seq 3: HTTP %d", resp.StatusCode)
	}
	clock.Advance(20 * time.Second)
	o.srv.DrainHintsNow(ctx)
	rs = o.srv.ReplicationStats()
	if rs.HintsPending != 0 || rs.HintsReplayed != 1 {
		t.Fatalf("queue poisoned after rejections: %+v", rs)
	}
	if got := f.srv.replicatedIn.Load(); got != 1 {
		t.Fatalf("follower applied %d replayed hints, want 1", got)
	}
}

// TestRerouteAfterOwnerKill bounds how long a pusher with no failover
// URL waits to be rerouted once its owner dies. The pusher keeps posting
// through one entry node and honours each shed's Retry-After plus the
// quarter witch.Pusher may add. The owner is killed outright (its
// listener closed), so the entry's forward fails in transport. The
// retry after the first shed must already reach the follower: the time
// from kill to ack is one Retry-After, not the several doubling breaker
// cooldowns it takes three transport failures to start.
func TestRerouteAfterOwnerKill(t *testing.T) {
	prof := testProfile(t, 31)
	var body bytes.Buffer
	if err := prof.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	for _, role := range []string{"non-member entry", "follower entry"} {
		t.Run(role, func(t *testing.T) {
			nodes := newTestRing(t, ringOptions{n: 3, rf: 2})
			id := pickOwned(t, nodes, 0)
			owner := nodes[0]
			var entry, follower *testNode
			for _, nd := range nodes[1:] {
				if nd.srv.Cluster().InReplicaSet(id, nd.url) {
					follower = nd
				} else {
					entry = nd
				}
			}
			if role == "follower entry" {
				entry = follower
			}
			if resp := keyedIngest(t, entry.url, body.Bytes(), id, 1); resp.StatusCode != http.StatusOK {
				t.Fatalf("healthy ingest: HTTP %d", resp.StatusCode)
			}

			owner.ht.Close()
			killed := time.Now()
			sheds := 0
			for {
				resp := keyedIngest(t, entry.url, body.Bytes(), id, 2)
				if resp.StatusCode == http.StatusOK {
					break
				}
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("after %d sheds: HTTP %d, want 503 or 200", sheds, resp.StatusCode)
				}
				sheds++
				if time.Since(killed) > 30*time.Second {
					t.Fatalf("no reroute %v after the owner died (%d sheds)", time.Since(killed), sheds)
				}
				ra, err := time.ParseDuration(resp.Header.Get("Retry-After") + "s")
				if err != nil {
					t.Fatal(err)
				}
				time.Sleep(ra + ra/4)
			}
			took := time.Since(killed)
			if got := follower.srv.st.Stats().Ingested; got != 2 {
				t.Fatalf("follower holds %d profiles, want both batches", got)
			}
			if took > 5*time.Second || sheds > 1 {
				t.Fatalf("rerouted %v after the owner died, after %d sheds; want one shed and under 5s", took, sheds)
			}
		})
	}
}
