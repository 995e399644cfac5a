package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/witch"
)

// Cluster is the sharded-witchd macro-benchmark and chaos gate, in two
// phases.
//
// Phase 1 (scaling): N-node rings under constant per-node offered load
// (P pushers per node, spraying batches round-robin across entry
// nodes, so most batches take the forwarding hop). The journal runs
// fsync=always over a deterministic disk model (wal.Options.SyncDelay)
// because real parallel fsync on this box's single device measures the
// device, not the sharding: each node owns an independent journal, so
// acked-batch throughput must scale with node count. The gate is the
// 3-node ring delivering >= 2.5x (quick: 2x) the single node's
// batches/s.
//
// Phase 2 (chaos): a 3-node ring on real fsync, durable spooled
// pushers with the full peer list as failover targets, and a kill -9
// of one node mid-stream. While the victim is down, a survivor must
// answer fleet queries with the X-Witch-Incomplete marker naming
// exactly the dead peer; pushers whose owner died must park their
// backlog in the spool. After the victim restarts (journal replay, no
// snapshot, no drain — the crash path) and the spools drain, the books
// must balance with zero drops, and GET /v1/profile for every
// pusher's program from EVERY node must be byte-identical to a
// fault-free single-node oracle fed exactly the acked batches — the
// exactly-once proof stretched over forwarding, failover, and a
// node-level crash.
func Cluster(w io.Writer, o Options) error {
	report.Section(w, "Cluster: sharded ingest, replicated forwarding, scatter-gather queries")

	perNode, perPusher, reps, minSpeedup := 6, 15, 2, 2.5
	if o.Quick {
		perNode, perPusher, reps, minSpeedup = 4, 10, 1, 2.0
	}
	// 5ms per commit: large enough that journal time dominates the
	// one-core CPU cost of the extra forwarding hop, so the measured
	// ratio is the sharding and not scheduler noise.
	const syncDelay = 5 * time.Millisecond
	prof, err := witch.Run(mustWorkload("listing3"), witch.Options{
		Tool: witch.DeadStores, Period: 97, Seed: o.Seed,
	})
	if err != nil {
		return fmt.Errorf("cluster: workload profile: %w", err)
	}

	fmt.Fprintf(w, "scaling: %d pushers/node x %d batches, entry nodes sprayed round-robin, fsync=always over a %s disk model, best of %d\n\n",
		perNode, perPusher, syncDelay, reps)

	type scalePoint struct {
		Nodes         int     `json:"nodes"`
		Pushers       int     `json:"pushers"`
		Batches       int     `json:"acked_batches"`
		Seconds       float64 `json:"seconds"`
		BatchesPerSec float64 `json:"batches_per_sec"`
		Forwards      uint64  `json:"forwards"`
		Speedup       float64 `json:"speedup_vs_one_node"`
	}
	points := make([]scalePoint, 0, 2)
	for _, n := range []int{1, 3} {
		var best time.Duration
		var forwards uint64
		for r := 0; r < reps; r++ {
			elapsed, fwd, err := runClusterScale(prof, n, perNode, perPusher, syncDelay)
			if err != nil {
				return fmt.Errorf("cluster: %d-node scale run: %w", n, err)
			}
			if best == 0 || elapsed < best {
				best, forwards = elapsed, fwd
			}
		}
		batches := n * perNode * perPusher
		points = append(points, scalePoint{
			Nodes: n, Pushers: n * perNode, Batches: batches,
			Seconds:       best.Seconds(),
			BatchesPerSec: float64(batches) / best.Seconds(),
			Forwards:      forwards,
		})
	}
	tbl := report.NewTable("", "nodes", "pushers", "acked batches", "elapsed", "batches/s", "forwards", "vs 1 node")
	for i := range points {
		points[i].Speedup = points[i].BatchesPerSec / points[0].BatchesPerSec
		p := points[i]
		tbl.Row(fmt.Sprint(p.Nodes), fmt.Sprint(p.Pushers), fmt.Sprint(p.Batches),
			report.Dur(time.Duration(p.Seconds*float64(time.Second))),
			report.F(p.BatchesPerSec, 0), fmt.Sprint(p.Forwards), report.X(p.Speedup))
	}
	tbl.Fprint(w)
	speedup := points[len(points)-1].Speedup
	fmt.Fprintf(w, "\n3-node scaling %s (gate: >=%.1fx)\n", report.X(speedup), minSpeedup)
	if speedup < minSpeedup {
		return fmt.Errorf("cluster: 3-node speedup %.2fx below the %.1fx gate", speedup, minSpeedup)
	}

	chaos, err := runClusterChaos(prof, o)
	if err != nil {
		return fmt.Errorf("cluster: chaos: %w", err)
	}
	fmt.Fprintf(w, "\nchaos: %d spooled pushers, kill -9 of one node mid-stream, restart, drain\n", chaos.Pushers)
	ctbl := report.NewTable("", "acked", "forwarded", "failovers", "spooled", "dup reacks", "partial queries", "oracle")
	ctbl.Row(fmt.Sprint(chaos.Acked), fmt.Sprint(chaos.Forwarded), fmt.Sprint(chaos.Failovers),
		fmt.Sprint(chaos.Spooled), fmt.Sprint(chaos.Dups), "marked incomplete", "byte-identical")
	ctbl.Fprint(w)
	fmt.Fprintln(w, "\nchaos: zero acked-batch loss; merged profiles byte-identical to the single-node oracle from every node")

	if !o.Quick {
		doc := struct {
			Experiment  string       `json:"experiment"`
			DiskModelMS float64      `json:"disk_model_ms"`
			Scale       []scalePoint `json:"scale"`
			Chaos       clusterChaos `json:"chaos"`
		}{
			Experiment:  "cluster",
			DiskModelMS: float64(syncDelay) / float64(time.Millisecond),
			Scale:       points,
			Chaos:       chaos,
		}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_cluster.json", append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("cluster: write BENCH_cluster.json: %w", err)
		}
		fmt.Fprintln(w, "wrote BENCH_cluster.json")
	}
	fmt.Fprintln(w)
	return nil
}

// clusterNode is one witchd of a ring (or a standalone node): durable
// journal on its own dir, a real TCP listener on a stable port,
// killable with the journal abandoned unsynced and restartable through
// crash recovery.
type clusterNode struct {
	dir     string
	addr    string
	url     string
	peers   []string     // nil for a standalone node
	rf      int          // replica-set size; 0 or 1 = single-owner
	client  *http.Client // inter-node client (nil = plain; replica runs thread faults here)
	now     func() time.Time
	walOpts wal.Options
	ob      *obs.Observer   // nil (the default) leaves the layer off
	chaos   *fault.Injector // post-commit response faults (delivery runs); nil = none

	node *daemon.Node
	srv  *daemon.Server
	cl   *cluster.Router
	ln   net.Listener // pre-reserved so peer lists exist before boot
}

func (n *clusterNode) start() error {
	cfg := daemon.NodeConfig{
		Store:         store.Config{Now: n.now},
		Server:        daemon.Config{Now: n.now, MaxInflight: 64, Obs: n.ob},
		DataDir:       n.dir,
		Journal:       n.walOpts,
		SnapshotEvery: 16,
		Replication: daemon.ReplicationConfig{
			DrainInterval:  25 * time.Millisecond,
			RepairInterval: -1, // the harness drives RepairNow explicitly
		},
		ReadHeaderTimeout: time.Second,
		Chaos:             n.chaos,
	}
	if len(n.peers) > 1 {
		cfg.Cluster = &cluster.Config{
			Self: n.url, Peers: n.peers,
			ReplicationFactor: n.rf,
			Client:            n.client,
			Logf:              func(string, ...any) {},
		}
	}
	node, err := daemon.OpenNode(cfg)
	if err != nil {
		return fmt.Errorf("node %s: %w", n.url, err)
	}
	n.node, n.srv, n.cl = node, node.Server(), node.Server().Cluster()
	ln := n.ln
	n.ln = nil
	if ln == nil {
		if ln, err = listenPinned(n.addr); err != nil {
			node.Kill()
			return fmt.Errorf("node %s relisten: %w", n.url, err)
		}
	}
	go node.Serve(ln)
	return nil
}

// kill is the node's kill -9: connections severed, journal and hint
// journals abandoned unsynced, no snapshot, no drain.
func (n *clusterNode) kill() { n.node.Kill() }

// stop is the graceful drain used once a run's books are closed.
func (n *clusterNode) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return n.node.Drain(ctx)
}

// nodeURLs lists the nodes' base URLs.
func nodeURLs(cns []*clusterNode) []string {
	urls := make([]string, len(cns))
	for i, cn := range cns {
		urls[i] = cn.url
	}
	return urls
}

// otherURLs lists every node's base URL but cns[skip]'s.
func otherURLs(cns []*clusterNode, skip int) []string {
	urls := nodeURLs(cns)
	return append(urls[:skip:skip], urls[skip+1:]...)
}

// bootCluster reserves ports for the whole ring first (membership is
// static and every node needs the full list at boot), then starts the
// nodes. configure, when set, runs per node after the ports are
// reserved and before the node starts (the replica experiment sets rf
// and the faulted inter-node client there).
func bootCluster(root string, nodes int, now func() time.Time, walOpts wal.Options, configure func(*clusterNode)) ([]*clusterNode, error) {
	cns := make([]*clusterNode, nodes)
	urls := make([]string, nodes)
	for i := range cns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		cns[i] = &clusterNode{
			dir:  filepath.Join(root, fmt.Sprintf("node-%d", i)),
			addr: addr, url: "http://" + addr,
			now: now, walOpts: walOpts, ln: ln,
		}
		urls[i] = cns[i].url
	}
	for _, cn := range cns {
		if nodes > 1 {
			cn.peers = urls
		}
		if configure != nil {
			configure(cn)
		}
		if err := cn.start(); err != nil {
			return nil, err
		}
	}
	return cns, nil
}

// runClusterScale drives one ring size and returns the wall time from
// first push to last ack plus the ring's forward count. Pusher
// identities are sampled until each node owns exactly perNode of them,
// so the load is balanced by construction and the measured spread is
// the sharding, not hash luck.
func runClusterScale(prof *witch.Profile, nodes, perNode, perPusher int, syncDelay time.Duration) (time.Duration, uint64, error) {
	root, err := os.MkdirTemp("", "witch-cluster-scale-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(root)
	epoch := time.Unix(1700000000, 0)
	cns, err := bootCluster(root, nodes, func() time.Time { return epoch },
		wal.Options{SyncDelay: syncDelay}, nil)
	if err != nil {
		return 0, 0, err
	}

	pushers := make([]*witch.Pusher, 0, nodes*perNode)
	for owner := 0; owner < nodes; owner++ {
		for k := 0; k < perNode; k++ {
			entry := cns[(owner*perNode+k)%nodes].url
			p, err := ownedPusher(cns, entry, owner, perPusher)
			if err != nil {
				return 0, 0, err
			}
			pushers = append(pushers, p)
		}
	}

	errc := make(chan error, len(pushers))
	start := time.Now()
	var wg sync.WaitGroup
	for _, p := range pushers {
		wg.Add(1)
		go func(p *witch.Pusher) {
			defer wg.Done()
			for j := 0; j < perPusher; j++ {
				if !p.Push(prof) {
					p.Close()
					errc <- fmt.Errorf("push %d rejected", j)
					return
				}
			}
			p.Close() // blocks until every batch is acked
			if s := p.Stats(); s.Sent != uint64(perPusher) || s.Dropped != 0 {
				errc <- fmt.Errorf("pusher delivered %d/%d (dropped %d)", s.Sent, perPusher, s.Dropped)
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		return 0, 0, err
	}

	var ingested, forwards uint64
	for _, cn := range cns {
		ingested += cn.srv.StoreStats().Ingested
		if cn.cl != nil {
			forwards += cn.cl.StatsSnapshot().Forwards
		}
	}
	if want := uint64(nodes * perNode * perPusher); ingested != want {
		return 0, 0, fmt.Errorf("ring ingested %d batches, want %d", ingested, want)
	}
	if nodes > 1 && forwards == 0 {
		return 0, 0, fmt.Errorf("round-robin entry spray produced zero forwards")
	}
	for _, cn := range cns {
		if err := cn.stop(); err != nil {
			return 0, 0, err
		}
	}
	return elapsed, forwards, nil
}

// ownedPusher creates pushers (random durable identities) until the
// ring assigns one to the wanted owner node, then keeps that one.
func ownedPusher(cns []*clusterNode, entryURL string, owner, queue int) (*witch.Pusher, error) {
	for try := 0; try < 200; try++ {
		p, err := witch.NewPusher(witch.PusherOptions{
			URL: entryURL, Queue: queue,
			Backoff: time.Millisecond,
			Client:  &http.Client{Timeout: 10 * time.Second},
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			return nil, err
		}
		if len(cns) == 1 || cns[0].cl.Owner(p.ID()) == cns[owner].url {
			return p, nil
		}
		p.Close()
	}
	return nil, fmt.Errorf("no pusher identity hashed to node %d in 200 draws", owner)
}

// clusterChaos is the chaos phase's machine-readable summary.
type clusterChaos struct {
	Pushers   int    `json:"pushers"`
	Acked     uint64 `json:"acked_batches"`
	Forwarded uint64 `json:"forwarded_batches"`
	Failovers uint64 `json:"pusher_failovers"`
	Spooled   uint64 `json:"spooled_batches"`
	Dups      uint64 `json:"duplicate_reacks"`
}

func runClusterChaos(base *witch.Profile, o Options) (clusterChaos, error) {
	var res clusterChaos
	pushers, perRound := 6, 20
	if o.Quick {
		pushers, perRound = 3, 12
	}
	res.Pushers = pushers
	root, err := os.MkdirTemp("", "witch-cluster-chaos-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)
	epoch := time.Unix(1700000000, 0)
	now := func() time.Time { return epoch }
	cns, err := bootCluster(root, 3, now, wal.Options{GroupCommit: true}, nil)
	if err != nil {
		return res, err
	}

	// Pusher i is owned by node i%3 (identity re-drawn until the ring
	// agrees) and enters at node i%3 too, with the other two nodes as
	// failover targets — so killing node 2 hits every role at once:
	// an owner (its pushers must spool), an entry (its pushers must
	// fail over), and a query shard (survivors must mark it).
	ps := make([]*deliveryPusher, pushers)
	for i := range ps {
		owner := i % 3
		cp := newDeliveryPusher(base, fmt.Sprintf("prog-%02d", i), filepath.Join(root, fmt.Sprintf("spool-%02d", i)),
			cns[owner].url, otherURLs(cns, owner))
		// Re-draw the durable identity until node i%3 owns it.
		if err := cp.openOwned(false, func(id string) bool { return cns[0].cl.Owner(id) == cns[owner].url }); err != nil {
			return res, err
		}
		ps[i] = cp
	}

	each := func(f func(*deliveryPusher) error) error {
		for _, cp := range ps {
			if err := f(cp); err != nil {
				return err
			}
		}
		return nil
	}
	pushAll := func() error {
		return each(func(cp *deliveryPusher) error { return cp.pushRound(perRound) })
	}

	// Round 1 lands cleanly; round 2 is cut mid-flight by the kill.
	if err := pushAll(); err != nil {
		return res, err
	}
	if err := each(func(cp *deliveryPusher) error { return cp.await(cp.quiesced, "quiesced", 60*time.Second) }); err != nil {
		return res, err
	}
	if err := pushAll(); err != nil {
		return res, err
	}
	time.Sleep(30 * time.Millisecond)
	victim := cns[2]
	victim.kill()

	// Round 3 runs against the two survivors: victim-owned batches park
	// in the spool behind the relayed 503s, victim-entry batches fail
	// over to live entry nodes.
	if err := pushAll(); err != nil {
		return res, err
	}

	// A survivor must keep answering — partially, and say so.
	r, err := http.Get(cns[0].url + "/v1/top?tool=" + base.Tool + "&program=prog-00")
	if err != nil {
		return res, fmt.Errorf("survivor query: %w", err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return res, fmt.Errorf("survivor query: HTTP %d, want partial 200", r.StatusCode)
	}
	if got := r.Header.Get("X-Witch-Incomplete"); got != victim.url {
		return res, fmt.Errorf("survivor did not mark the dead peer: X-Witch-Incomplete=%q, want %q", got, victim.url)
	}

	if err := each(func(cp *deliveryPusher) error { return cp.await(cp.quiesced, "quiesced", 60*time.Second) }); err != nil {
		return res, err
	}
	for _, cp := range ps {
		res.Failovers += cp.p.Stats().Failovers
	}

	// Crash recovery: reopen the victim over its journal, then drain
	// every spool through the ring.
	if err := victim.start(); err != nil {
		return res, err
	}
	if err := each(func(cp *deliveryPusher) error { return cp.await(cp.drained, "drained", 60*time.Second) }); err != nil {
		return res, err
	}
	each(func(cp *deliveryPusher) error { cp.finish(); return nil })

	// The books: every accepted batch was acked; the only tolerated
	// delay path is the spool, never a drop.
	for i, cp := range ps {
		if cp.accepted != cp.sent+cp.dropped {
			return res, fmt.Errorf("pusher %d books do not balance: accepted %d != sent %d + dropped %d",
				i, cp.accepted, cp.sent, cp.dropped)
		}
		if cp.dropped != 0 {
			return res, fmt.Errorf("pusher %d dropped %d batches: %v", i, cp.dropped, cp.byReason)
		}
		res.Acked += cp.sent
		res.Spooled += cp.spooled
	}
	for _, cn := range cns {
		res.Forwarded += cn.cl.StatsSnapshot().Forwards
		ds := cn.srv.DedupStats()
		res.Dups += ds.Duplicates + ds.Stale
	}
	if res.Forwarded == 0 {
		return res, fmt.Errorf("chaos run forwarded nothing: the ring never routed")
	}
	if res.Failovers == 0 {
		return res, fmt.Errorf("pushers entering at the dead node never failed over")
	}

	// Oracle: a fault-free standalone witchd fed exactly the acked
	// batches. Every node of the ring must serve the byte-identical
	// merged profile for every program.
	if err := oracleCompare(now, ps, nodeURLs(cns)...); err != nil {
		return res, err
	}
	for _, cn := range cns {
		if err := cn.stop(); err != nil {
			return res, err
		}
	}
	return res, nil
}
