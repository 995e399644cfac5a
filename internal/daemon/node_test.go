package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/witch"
)

// servedNode is one OpenNode incarnation served over real TCP, the way
// witchd runs it.
type servedNode struct {
	node *Node
	url  string
}

// serveNode opens cfg and serves it on a fresh loopback port.
func serveNode(t *testing.T, cfg NodeConfig) *servedNode {
	t.Helper()
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go node.Serve(ln)
	return &servedNode{node: node, url: "http://" + ln.Addr().String()}
}

// durableNodeConfig is a single durable node over dir with a stepped
// clock, so byte-level profile output is stable across incarnations.
func durableNodeConfig(dir string, now func() time.Time) NodeConfig {
	return NodeConfig{
		Store:   store.Config{Window: time.Minute, Buckets: 4, Now: now},
		Server:  Config{Now: now},
		DataDir: dir,
	}
}

// jsonBody is testProfile(seed) in the JSON wire format.
func jsonBody(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testProfile(t, seed).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNodeDrainReopenReplaysNothing: Drain on a served node finishes
// HTTP, takes the final snapshot and releases the journal, so the next
// OpenNode over the same dir loads that snapshot, replays no batch and
// serves the identical profile.
func TestNodeDrainReopenReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	now := stepClock()
	body := jsonBody(t, 1)
	tool := testProfile(t, 1).Tool

	a := serveNode(t, durableNodeConfig(dir, now))
	for seq := uint64(1); seq <= 3; seq++ {
		if resp := keyedIngest(t, a.url, body, "drain-pusher", seq); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: HTTP %d", seq, resp.StatusCode)
		}
	}
	want := fetchProfile(t, a.url+"/v1/profile?tool="+tool)
	if err := a.node.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := http.Get(a.url + "/healthz"); err == nil {
		t.Fatal("drained node still answers HTTP")
	}

	b := serveNode(t, durableNodeConfig(dir, now))
	t.Cleanup(b.node.Kill)
	rec := b.node.Recovery()
	if !rec.SnapshotLoaded || rec.ReplayedBatches != 0 {
		t.Fatalf("reopen after Drain should load the final snapshot and replay nothing: %+v", rec)
	}
	if got := fetchProfile(t, b.url+"/v1/profile?tool="+tool); !bytes.Equal(got, want) {
		t.Fatalf("profile changed across Drain and reopen:\n%s\nvs\n%s", got, want)
	}
}

// TestNodeKillReopenRecoversAcked: Kill leaves no snapshot and an
// unsynced journal; the next OpenNode replays every acked batch, serves
// the identical profile, and re-acks a retried key instead of merging
// it twice.
func TestNodeKillReopenRecoversAcked(t *testing.T) {
	dir := t.TempDir()
	now := stepClock()
	body := jsonBody(t, 2)
	tool := testProfile(t, 2).Tool
	const acked = 5

	a := serveNode(t, durableNodeConfig(dir, now))
	for seq := uint64(1); seq <= acked; seq++ {
		if resp := keyedIngest(t, a.url, body, "kill-pusher", seq); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: HTTP %d", seq, resp.StatusCode)
		}
	}
	want := fetchProfile(t, a.url+"/v1/profile?tool="+tool)
	a.node.Kill()

	b := serveNode(t, durableNodeConfig(dir, now))
	t.Cleanup(b.node.Kill)
	rec := b.node.Recovery()
	if rec.SnapshotLoaded || rec.ReplayedBatches != acked || rec.ReplayedKeys != acked {
		t.Fatalf("reopen after Kill should replay all %d acked batches from the journal: %+v", acked, rec)
	}
	if got := fetchProfile(t, b.url+"/v1/profile?tool="+tool); !bytes.Equal(got, want) {
		t.Fatal("Kill and reopen lost or doubled acked data")
	}
	resp := keyedIngest(t, b.url, body, "kill-pusher", acked)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Witch-Duplicate") == "" {
		t.Fatalf("retry of an acked key after Kill: HTTP %d dup=%q, want a re-ack", resp.StatusCode, resp.Header.Get("X-Witch-Duplicate"))
	}
	if got := b.node.Server().StoreStats().Ingested; got != acked {
		t.Fatalf("store holds %d profiles, %d were acked", got, acked)
	}
}

// deadURL is a loopback URL nothing listens on.
func deadURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

// hintOne boots an RF=2 two-node ring member whose peer is down and
// coordinates one keyed batch it owns, which must queue one hint. It
// returns the node and the dead peer's URL.
func hintOne(t *testing.T, cfg NodeConfig) (*Node, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self, peer := "http://"+ln.Addr().String(), deadURL(t)
	cfg.Cluster = &cluster.Config{Self: self, Peers: []string{self, peer}, ReplicationFactor: 2, Logf: t.Logf}
	cfg.Replication = ReplicationConfig{DrainInterval: time.Hour, RepairInterval: -1}
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Kill)
	go node.Serve(ln)

	cl := node.Server().Cluster()
	id := ""
	for i := 0; id == ""; i++ {
		if c := fmt.Sprintf("hint-pusher-%d", i); cl.Owner(c) == self {
			id = c
		}
	}
	if resp := keyedIngest(t, self, jsonBody(t, 3), id, 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest with the follower down: HTTP %d, want a hint-backed 200", resp.StatusCode)
	}
	if rs := node.Server().ReplicationStats(); rs.HintsQueued != 1 || rs.HintsPending != 1 {
		t.Fatalf("no hint queued for the dead follower: %+v", rs)
	}
	return node, peer
}

// TestNodeHintJournalsUnderDataDir: an RF=2 node with a data dir keeps
// its hint journals under DataDir/hints, and they take the journal's
// NoSync and nothing else — not group commit, not its segment size.
func TestNodeHintJournalsUnderDataDir(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		t.Run(fmt.Sprintf("nosync=%v", noSync), func(t *testing.T) {
			dir := t.TempDir()
			node, peer := hintOne(t, NodeConfig{
				DataDir: dir,
				Journal: wal.Options{NoSync: noSync, GroupCommit: true, SegmentBytes: 4096},
			})
			hs := node.Server().repl.hints
			if want := filepath.Join(dir, "hints"); hs.dir != want {
				t.Fatalf("hint dir %q, want %q", hs.dir, want)
			}
			if want := (wal.Options{NoSync: noSync, SegmentBytes: 1 << 20}); !reflect.DeepEqual(hs.walOpts, want) {
				t.Fatalf("hint journal options %+v, want %+v", hs.walOpts, want)
			}
			hp, err := hs.peerFor(peer)
			if err != nil {
				t.Fatal(err)
			}
			if hp.j == nil || len(hp.mem) != 0 {
				t.Fatal("hint was not journaled on disk")
			}
			ents, err := os.ReadDir(filepath.Join(dir, "hints", sanitizePeer(peer)))
			if err != nil || len(ents) == 0 {
				t.Fatalf("no hint journal under the data dir: %v", err)
			}
		})
	}
}

// TestNodeMemoryOnlyHintsInMemory: a clustered node without a data dir
// is volatile, so its hints are too.
func TestNodeMemoryOnlyHintsInMemory(t *testing.T) {
	node, peer := hintOne(t, NodeConfig{})
	hs := node.Server().repl.hints
	if hs.dir != "" {
		t.Fatalf("memory-only node opened a hint dir %q", hs.dir)
	}
	hp, err := hs.peerFor(peer)
	if err != nil {
		t.Fatal(err)
	}
	if hp.j != nil || len(hp.mem) != 1 {
		t.Fatalf("hint not held in memory: journal=%v mem=%d", hp.j != nil, len(hp.mem))
	}
}

// TestNodeServesOnlyAfterRecoveryAndReplication: witchd binds its port
// before OpenNode and serves after it. Every /healthz answer — one
// sent before OpenNode ran included — reports serving with the whole
// journal replayed and replication running. A node whose replication cannot start never serves, and
// releases its journal for the next boot.
func TestNodeServesOnlyAfterRecoveryAndReplication(t *testing.T) {
	dir := t.TempDir()
	now := stepClock()
	const acked = 20
	body := jsonBody(t, 4)
	seed := serveNode(t, durableNodeConfig(dir, now))
	for seq := uint64(1); seq <= acked; seq++ {
		if resp := keyedIngest(t, seed.url, body, "ready-pusher", seq); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed ingest %d: HTTP %d", seq, resp.StatusCode)
		}
	}
	seed.node.Kill()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self, peer := "http://"+ln.Addr().String(), deadURL(t)
	cfg := durableNodeConfig(dir, now)
	cfg.Cluster = &cluster.Config{Self: self, Peers: []string{self, peer}, ReplicationFactor: 2, Logf: t.Logf}
	cfg.Replication = ReplicationConfig{DrainInterval: time.Hour, RepairInterval: -1}

	// A hint dir the replication engine cannot open fails the boot.
	blocker := filepath.Join(dir, "hints", sanitizePeer(peer))
	if err := os.MkdirAll(filepath.Dir(blocker), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocker, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := OpenNode(cfg); err == nil || !strings.Contains(err.Error(), "replication") {
		if n != nil {
			n.Kill()
		}
		t.Fatalf("boot with an unopenable hint journal: err=%v, want a replication error", err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}

	// Ask before the node exists: the request sits in the listen
	// backlog until Serve.
	early, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	if _, err := io.WriteString(early, "GET /healthz HTTP/1.1\r\nHost: witchd\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	node, err := OpenNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Kill)
	go node.Serve(ln)

	check := func(label string, r *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer r.Body.Close()
		var hz map[string]any
		if err := json.NewDecoder(r.Body).Decode(&hz); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if hz["state"] != "serving" {
			t.Fatalf("%s: state %v, want serving", label, hz["state"])
		}
		rec, _ := hz["durability"].(map[string]any)["recovery"].(map[string]any)
		if rec == nil || rec["replayed_batches"] != float64(acked) {
			t.Fatalf("%s: serving before recovery replayed all %d batches: %v", label, acked, hz["durability"])
		}
		if hz["replication"] == nil {
			t.Fatalf("%s: serving without the replication engine", label)
		}
	}
	early.SetDeadline(time.Now().Add(10 * time.Second))
	r, err := http.ReadResponse(bufio.NewReader(early), nil)
	check("request sent before OpenNode", r, err)
	r, err = http.Get(self + "/healthz")
	check("steady state", r, err)
}

// TestLingerSkipsForwardsInFlight: a node lingering for its gang
// (MaxCommitDelay) waits only for batches on their way to its journal.
// A batch it is forwarding to another owner holds an in-flight slot
// but never reaches the journal, so a local ingest beside it commits
// without waiting out the linger.
func TestLingerSkipsForwardsInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer owner.Close()
	defer close(release)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	const linger = 3 * time.Second
	node, err := OpenNode(NodeConfig{
		DataDir: t.TempDir(),
		Journal: wal.Options{GroupCommit: true, MaxCommitDelay: linger},
		Cluster: &cluster.Config{Self: self, Peers: []string{self, owner.URL}, Logf: t.Logf},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Kill)
	go node.Serve(ln)

	cl := node.Server().Cluster()
	var mine, theirs string
	for i := 0; mine == "" || theirs == ""; i++ {
		id := fmt.Sprintf("linger-pusher-%d", i)
		if cl.Owner(id) == self {
			mine = id
		} else {
			theirs = id
		}
	}
	body := jsonBody(t, 3)
	forwarded := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, self+"/v1/ingest", bytes.NewReader(body))
		req.Header.Set(witch.PusherIDHeader, theirs)
		req.Header.Set(witch.PusherSeqHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			forwarded <- 0
			return
		}
		resp.Body.Close()
		forwarded <- resp.StatusCode
	}()
	<-entered

	t0 := time.Now()
	if resp := keyedIngest(t, self, body, mine, 1); resp.StatusCode != http.StatusOK {
		t.Fatalf("local ingest beside a forward: HTTP %d", resp.StatusCode)
	}
	if d := time.Since(t0); d >= linger/2 {
		t.Fatalf("local ingest took %v beside a forward in flight; the %v linger waited for a batch that never journals", d, linger)
	}
	release <- struct{}{}
	if code := <-forwarded; code != http.StatusServiceUnavailable {
		t.Fatalf("forwarded batch: HTTP %d, want the owner's 503 relayed", code)
	}
}
