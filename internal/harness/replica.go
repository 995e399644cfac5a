package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/wal"
	"repro/witch"
)

// Replica is the replicated-ownership chaos gate: a 3-node ring with
// RF=2, where the coordinator acks a keyed batch only after its own
// journal commit AND either a durable follower ack or a durable hint,
// must survive the permanent destruction of one node — kill -9 plus a
// data-dir wipe, journal, snapshots and hint journals all gone — with
// zero acked-batch loss.
//
// The run stacks the failure modes in sequence: a faulted round
// (injected refusals, timeouts and lost acks on the inter-node plane;
// injected write faults on the pusher spools), a temporary crash of one
// node (survivors promote, queue durable hints, and keep answering
// fleet queries WITHOUT the partial marker — that is what RF=2 buys),
// a heal-and-drain window, then the permanent destruction of the same
// node, a further round against the survivors, and finally a blank
// replacement booted on the dead node's address that must converge to
// digest equality through hint replay and anti-entropy repair alone.
//
// The gate is byte-level at two points: after the destruction, GET
// /v1/profile from every survivor must be byte-identical to a
// fault-free single-node oracle fed exactly the acked batches, with no
// X-Witch-Incomplete marker; and after the replacement converges, the
// same holds from all three nodes.
func Replica(w io.Writer, o Options) error {
	report.Section(w, "Replica: RF=2 ack-after-replicate, hinted handoff, anti-entropy repair")

	pushers, perRound := 6, 20
	if o.Quick {
		pushers, perRound = 3, 12
	}
	prof, err := witch.Run(mustWorkload("listing3"), witch.Options{
		Tool: witch.DeadStores, Period: 97, Seed: o.Seed,
	})
	if err != nil {
		return fmt.Errorf("replica: workload profile: %w", err)
	}

	fmt.Fprintf(w, "%d pushers x 3 rounds x %d batches on a 3-node RF=2 ring; net faults between nodes, disk faults on spools;\n", pushers, perRound)
	fmt.Fprintln(w, "one node crashes, heals, then is destroyed for good (kill -9 + data-dir wipe) and replaced blank")

	res, err := runReplica(prof, pushers, perRound, o)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}

	tbl := report.NewTable("", "acked", "forwarded", "reroutes", "replicated", "hints queued", "hints replayed", "repair pulls", "net inj", "disk inj", "dup reacks")
	tbl.Row(fmt.Sprint(res.Acked), fmt.Sprint(res.Forwarded), fmt.Sprint(res.Reroutes),
		fmt.Sprint(res.Replicated), fmt.Sprint(res.HintsQueued), fmt.Sprint(res.HintsReplayed),
		fmt.Sprint(res.RepairPulls), fmt.Sprint(res.NetInjected), fmt.Sprint(res.DiskInjected),
		fmt.Sprint(res.Dups))
	tbl.Fprint(w)
	fmt.Fprintln(w, "\nsurvivors served complete byte-identical profiles after the permanent loss;")
	fmt.Fprintln(w, "blank replacement converged to digest equality; zero acked-batch loss")

	if !o.Quick {
		doc := struct {
			Experiment string        `json:"experiment"`
			Result     replicaResult `json:"result"`
		}{Experiment: "replica", Result: res}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_replica.json", append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("replica: write BENCH_replica.json: %w", err)
		}
		fmt.Fprintln(w, "wrote BENCH_replica.json")
	}
	fmt.Fprintln(w)
	return nil
}

// replicaResult is the run's machine-readable summary.
type replicaResult struct {
	Pushers       int    `json:"pushers"`
	Acked         uint64 `json:"acked_batches"`
	Dropped       uint64 `json:"counted_drops"`
	Forwarded     uint64 `json:"forwarded_batches"`
	Reroutes      uint64 `json:"forward_reroutes"`
	Replicated    uint64 `json:"replicated_batches"`
	HintsQueued   uint64 `json:"hints_queued"`
	HintsReplayed uint64 `json:"hints_replayed"`
	RepairPulls   uint64 `json:"repair_pulls"`
	NetInjected   uint64 `json:"net_injected"`
	DiskInjected  uint64 `json:"disk_injected"`
	Dups          uint64 `json:"duplicate_reacks"`
}

// switchTransport routes inter-node requests through the faulted
// transport while on, and the clean one after the heal — so the fault
// window is a phase of the experiment, not a property of the client.
type switchTransport struct {
	clean  http.RoundTripper
	faulty http.RoundTripper
	on     atomic.Bool
}

func (t *switchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.on.Load() {
		return t.faulty.RoundTrip(req)
	}
	return t.clean.RoundTrip(req)
}

func runReplica(base *witch.Profile, pushers, perRound int, o Options) (replicaResult, error) {
	res := replicaResult{Pushers: pushers}
	ctx := context.Background()
	root, err := os.MkdirTemp("", "witch-replica-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)
	epoch := time.Unix(1700000000, 0)
	now := func() time.Time { return epoch }

	// The inter-node plane: refused connections, injected timeouts and
	// lost acks between the daemons. A lost replicate ack makes the
	// coordinator hint a batch its follower already holds — the follower
	// must re-ack the hint replay as a duplicate, never re-merge it.
	netInj := fault.NewInjector(fault.Plan{
		ConnRefused: 0.06, ReqTimeout: 0.04, LostAck: 0.06, Seed: o.Seed + 91,
	})
	inner := &http.Transport{}
	sw := &switchTransport{clean: inner, faulty: &fault.Transport{Inner: inner, Inj: netInj}}
	sw.on.Store(true)
	interNode := &http.Client{Transport: sw, Timeout: 5 * time.Second}

	// The disk plane: injected write faults on the pusher spools (the
	// counted DropSpoolError path is the only loss the books permit).
	diskInj := fault.NewInjector(fault.Plan{ShortWrite: 0.03, ENOSPC: 0.03, Seed: o.Seed + 92})

	cns, err := bootCluster(root, 3, now, wal.Options{GroupCommit: true}, func(cn *clusterNode) {
		cn.rf = 2
		cn.client = interNode
	})
	if err != nil {
		return res, err
	}

	ps, err := replicaPushers(cns, base, pushers, root, diskInj)
	if err != nil {
		return res, err
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
	// Rounds await full delivery, not mere quiescence: with RF=2 the
	// ring stays writable through every fault below (reroutes and
	// failovers, never a dark window), so a batch parked in the spool is
	// a batch still owed an ack, and the hint/replicate counters the
	// gates read are only meaningful once everything landed.
	drainAll := func() error {
		return each(func(cp *deliveryPusher) error { return cp.await(cp.drained, "drained", 60*time.Second) })
	}

	// Round 1: the whole ring up, inter-node faults biting. Every ack
	// is already replicate-or-hint gated.
	if err := pushAll(); err != nil {
		return res, err
	}
	if err := drainAll(); err != nil {
		return res, err
	}

	// Round 2: kill -9 one node mid-ring. Its followers promote (the
	// preference list's next node coordinates), and every batch the dead
	// node should hold becomes a durable hint on a survivor.
	victim := cns[2]
	victim.kill()
	if err := pushAll(); err != nil {
		return res, err
	}
	if err := drainAll(); err != nil {
		return res, err
	}
	queuedMidOutage := uint64(0)
	for _, cn := range []*clusterNode{cns[0], cns[1]} {
		queuedMidOutage += cn.srv.ReplicationStats().HintsQueued
	}
	if queuedMidOutage == 0 {
		return res, fmt.Errorf("a dead replica produced no hinted handoff")
	}

	// Heal the fault plane, then prove RF=2's availability claim while
	// the victim is still down: survivors answer fleet queries COMPLETE
	// — every partition has a live replica — with no partial marker.
	sw.on.Store(false)
	for _, cn := range []*clusterNode{cns[0], cns[1]} {
		r, err := http.Get(cn.url + "/v1/top?tool=" + base.Tool + "&program=prog-00")
		if err != nil {
			return res, fmt.Errorf("survivor query: %w", err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return res, fmt.Errorf("survivor %s answered %d mid-outage, want 200", cn.url, r.StatusCode)
		}
		if inc := r.Header.Get("X-Witch-Incomplete"); inc != "" {
			return res, fmt.Errorf("survivor %s marked the query partial mid-outage (%s): RF=2 should cover every partition", cn.url, inc)
		}
	}

	// Crash-recover the victim and let the hints drain into it. Only a
	// node with zero hints outstanding against it anywhere is safe to
	// destroy — the drain closes the replication debt the outage opened.
	if err := victim.start(); err != nil {
		return res, err
	}
	if err := awaitHintsDrained(ctx, cns, 60*time.Second); err != nil {
		return res, err
	}

	// Permanent loss: kill -9 AND wipe the data dir — journal,
	// snapshots, hint journals, everything. This node's state is gone
	// from the universe; only its replicas remember it.
	victim.kill()
	if err := os.RemoveAll(victim.dir); err != nil {
		return res, err
	}

	// A reroute needs a non-member entry node that already knows the
	// dead owner is dead. The reroute pusher has no failover URL and
	// enters at cns[0] outside the dead owner's replica set, so every
	// ack it gets is a reroute. Its first batches fail there, and the
	// entry's 503 Retry-After parks them all in the faulted spool — a
	// fixed count of disk-fault opportunities. Round 3 against the two
	// survivors runs meanwhile: pushers entering at the dead node fail
	// over, batches it owned reroute to promoted followers, its share
	// of new batches queues as hints for the replacement, and the failed
	// legs open the entry's breaker. Once the entry reports it open, the
	// reroute pusher sends one more batch.
	rp := newDeliveryPusher(base, "prog-reroute", filepath.Join(root, "spool-reroute"), cns[0].url, nil)
	rp.diskInj = diskInj
	ref := cns[0].cl
	if err := rp.openOwned(true, func(id string) bool {
		return ref.Owner(id) == victim.url && !ref.InReplicaSet(id, cns[0].url)
	}); err != nil {
		return res, err
	}
	if err := rp.pushRound(2 * perRound); err != nil {
		return res, err
	}
	if err := pushAll(); err != nil {
		return res, err
	}
	if err := awaitBreakerOpen(cns[0], victim.url, 30*time.Second); err != nil {
		return res, err
	}
	if err := rp.pushRound(1); err != nil {
		return res, err
	}
	ps = append(ps, rp)
	if err := drainAll(); err != nil {
		return res, err
	}
	each(func(cp *deliveryPusher) error { cp.finish(); return nil })

	// The books: every accepted batch was acked or counted dropped on
	// the one permitted path (spool write faults).
	for i, cp := range ps {
		if cp.accepted != cp.sent+cp.dropped {
			return res, fmt.Errorf("pusher %d books do not balance: accepted %d != sent %d + dropped %d",
				i, cp.accepted, cp.sent, cp.dropped)
		}
		for reason, n := range cp.byReason {
			if n > 0 && reason != witch.DropSpoolError {
				return res, fmt.Errorf("pusher %d dropped %d batches for unpermitted reason %q", i, n, reason)
			}
		}
		res.Acked += cp.sent
		res.Dropped += cp.dropped
	}

	// The tentpole's first gate: with one node permanently gone, every
	// SURVIVOR serves every pusher's merged profile byte-identical to
	// the fault-free oracle, complete, no partial marker.
	survivors := []*clusterNode{cns[0], cns[1]}
	if err := oracleCompare(now, ps, nodeURLs(survivors)...); err != nil {
		return res, fmt.Errorf("after permanent loss: %w", err)
	}

	// A blank replacement on the dead node's address: same ring, empty
	// dirs. Hint replay pushes the outage-era batches at it; anti-entropy
	// repair pulls everything else; the run is converged when the
	// replica sets agree digest-for-digest.
	replacement := &clusterNode{
		dir:  victim.dir,
		addr: victim.addr, url: victim.url,
		peers: victim.peers, rf: victim.rf, client: victim.client,
		now: now, walOpts: victim.walOpts,
	}
	if err := replacement.start(); err != nil {
		return res, fmt.Errorf("blank replacement boot: %w", err)
	}
	cns[2] = replacement
	if err := awaitReplicaConvergence(ctx, cns, replacement, 60*time.Second); err != nil {
		return res, err
	}

	// The second gate: the converged ring — replacement included —
	// serves the oracle bytes from every node.
	if err := oracleCompare(now, ps, nodeURLs(cns)...); err != nil {
		return res, fmt.Errorf("after replacement convergence: %w", err)
	}

	for _, cn := range cns {
		cs := cn.cl.StatsSnapshot()
		res.Forwarded += cs.Forwards
		res.Reroutes += cs.ForwardReroutes
		res.Replicated += cs.Replicates
		rs := cn.srv.ReplicationStats()
		res.HintsQueued += rs.HintsQueued
		res.HintsReplayed += rs.HintsReplayed
		res.RepairPulls += rs.RepairPulls
		ds := cn.srv.DedupStats()
		res.Dups += ds.Duplicates + ds.Stale
	}
	res.NetInjected = netInj.TotalInjected()
	res.DiskInjected = diskInj.TotalInjected()
	switch {
	case res.Forwarded == 0:
		return res, fmt.Errorf("the ring never forwarded")
	case res.Replicated == 0:
		return res, fmt.Errorf("no batch was synchronously replicated")
	case res.Reroutes == 0:
		return res, fmt.Errorf("no forward rerouted past the dead owner")
	case res.HintsReplayed == 0:
		return res, fmt.Errorf("no hint was ever replayed")
	case res.RepairPulls == 0:
		return res, fmt.Errorf("the blank replacement never repair-pulled a partition")
	case res.NetInjected == 0:
		return res, fmt.Errorf("inter-node fault plan enabled but nothing injected")
	case res.DiskInjected == 0:
		return res, fmt.Errorf("spool disk fault plan enabled but nothing injected")
	}

	for _, cn := range cns {
		if err := cn.stop(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// replicaPushers builds the owner-affined pusher fleet: pusher i is
// owned by node i%3 but ENTERS at the next node over, so every batch
// takes the forwarding hop, and the other nodes serve as failover
// targets — destroying node 2 then hits an owner (its pushers reroute
// to the promoted follower), an entry node (its pushers fail over),
// and a replica (its share of every set becomes hints) at once.
func replicaPushers(cns []*clusterNode, base *witch.Profile, pushers int, root string, diskInj *fault.Injector) ([]*deliveryPusher, error) {
	ps := make([]*deliveryPusher, pushers)
	for i := range ps {
		owner := i % 3
		entry := (owner + 1) % 3
		cp := newDeliveryPusher(base, fmt.Sprintf("prog-%02d", i), filepath.Join(root, fmt.Sprintf("spool-%02d", i)),
			cns[entry].url, otherURLs(cns, entry))
		cp.diskInj = diskInj
		// Re-draw the durable identity until node i%3 owns it.
		if err := cp.openOwned(true, func(id string) bool { return cns[0].cl.Owner(id) == cns[owner].url }); err != nil {
			return nil, err
		}
		ps[i] = cp
	}
	return ps, nil
}

// awaitBreakerOpen polls cn's breaker view until peer's breaker is open.
func awaitBreakerOpen(cn *clusterNode, peer string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		for _, st := range cn.cl.PeerStates() {
			if st.Peer == peer && st.Open {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never opened its breaker for the dead owner %s", cn.url, peer)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitHintsDrained sweeps every node's hint queues until nothing is
// pending anywhere (explicit DrainHintsNow calls plus the background
// drain; the deadline covers breaker cooldowns on the healed peer).
func awaitHintsDrained(ctx context.Context, cns []*clusterNode, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		for _, cn := range cns {
			cn.srv.DrainHintsNow(ctx)
			pending += cn.srv.ReplicationStats().HintsPending
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hints never drained: %d still pending", pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitReplicaConvergence drives hint drains on the survivors and
// repair rounds on the replacement until every replica set agrees
// digest-for-digest, then requires the replacement to actually hold
// partitions (a vacuously empty digest is not convergence).
func awaitReplicaConvergence(ctx context.Context, cns []*clusterNode, replacement *clusterNode, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for {
		for _, cn := range cns {
			cn.srv.DrainHintsNow(ctx)
		}
		replacement.srv.RepairNow(ctx)
		if last = replicaDigestsEqual(ctx, cns, replacement); last == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replacement never converged: %v", last)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicaDigestsEqual fetches every node's /v1/digest and checks that
// each pusher's replica-set members hold identical (max, n, sum) rows.
func replicaDigestsEqual(ctx context.Context, cns []*clusterNode, replacement *clusterNode) error {
	ref := cns[0].cl
	digs := make(map[string]*cluster.Digest, len(cns))
	for _, cn := range cns {
		d, err := ref.FetchDigest(ctx, cn.url)
		if err != nil {
			return fmt.Errorf("digest from %s: %w", cn.url, err)
		}
		digs[cn.url] = d
	}
	if len(digs[replacement.url].Pushers) == 0 {
		return fmt.Errorf("replacement digest still empty")
	}
	ids := map[string]bool{}
	for _, d := range digs {
		for id := range d.Pushers {
			ids[id] = true
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no pusher partitions anywhere")
	}
	for id := range ids {
		var want cluster.DigestEntry
		first := true
		for _, cn := range cns {
			if !ref.InReplicaSet(id, cn.url) {
				continue
			}
			got, ok := digs[cn.url].Pushers[id]
			if !ok {
				return fmt.Errorf("replica %s holds nothing for pusher %s", cn.url, id)
			}
			if first {
				want, first = got, false
				continue
			}
			if got != want {
				return fmt.Errorf("pusher %s diverges: %+v vs %+v", id, got, want)
			}
		}
	}
	return nil
}
