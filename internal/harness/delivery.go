package harness

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/witch"
)

// Delivery is the exactly-once chaos experiment: N pushers (half JSON,
// half binary wire format) stream profiles to a real witchd over real
// TCP while the network, the disks, and both processes misbehave —
// injected connection refusals, request timeouts, mid-body disconnects,
// lost acks and corrupted responses; injected spool-write failures and
// spool-overflow evictions; and kill -9-style restarts of the daemon
// (journal abandoned unsynced) and of the pushers (spool abandoned
// unsynced) mid-stream.
//
// The gate is byte-level: each pusher pushes copies of one profile
// under its own program name, so the daemon's merged answer for that
// program depends only on how many copies were merged. After a clean
// drain, GET /v1/profile for every program must be byte-identical to a
// fault-free oracle fed exactly the batches the pusher counted as
// acknowledged — one merge lost (acked data dropped) or one merge
// doubled (a retry the dedup window missed) and the bytes differ. The
// only permitted losses are the explicitly counted drop paths
// (spool eviction, spool write error), and the pusher's own books must
// balance: accepted = sent + dropped, nothing pending, across every
// kill and restart.
func Delivery(w io.Writer, o Options) error {
	report.Section(w, "Delivery: exactly-once under net+disk faults and kill -9 of both sides")

	pushers, perRound := 6, 25
	if o.Quick {
		pushers, perRound = 3, 12
	}
	prof, err := witch.Run(mustWorkload("listing3"), witch.Options{
		Tool: witch.DeadStores, Period: 97, Seed: o.Seed,
	})
	if err != nil {
		return fmt.Errorf("delivery: workload profile: %w", err)
	}

	cases := deliveryCases(o)
	fmt.Fprintf(w, "%d pushers x 3 rounds x %d batches, %d fault sweeps; 2 daemon kills + 2 pusher kills per sweep\n\n",
		pushers, perRound, len(cases))
	tbl := report.NewTable("", "sweep", "pushed", "sent", "replayed", "spooled", "evicted", "dropped",
		"net inj", "chaos inj", "disk inj", "dup reacks", "oracle")
	for _, c := range cases {
		r, err := runDeliveryCase(c, prof, pushers, perRound, o.Seed)
		if err != nil {
			return fmt.Errorf("delivery: sweep %q: %w", c.name, err)
		}
		tbl.Row(c.name, fmt.Sprint(r.pushed), fmt.Sprint(r.sent), fmt.Sprint(r.replayed),
			fmt.Sprint(r.spooled), fmt.Sprint(r.evicted), fmt.Sprint(r.dropped),
			fmt.Sprint(r.netInjected), fmt.Sprint(r.chaosInjected), fmt.Sprint(r.diskInjected),
			fmt.Sprint(r.dups), "byte-identical")
	}
	tbl.Fprint(w)
	fmt.Fprintln(w, "\nevery sweep: zero acked-profile loss, zero double-merge; spool overflow the only uncounted-free drop path")
	return nil
}

// deliveryCase is one fault sweep. Sweeps where an already-merged batch
// can be dropped before its retry (ack-loss faults + eviction) are
// contradictory by construction, so ack-loss sweeps run with a generous
// spool and expect zero drops, while drop-permitting sweeps use only
// pre-commit fault classes (refused connections, injected timeouts)
// where a failed send provably never reached the journal.
type deliveryCase struct {
	name     string
	client   fault.Plan // pusher-side network faults
	server   fault.Plan // daemon-side post-commit chaos
	disk     fault.Plan // spool journal write faults
	spoolMax int64      // 0 = generous (64 MiB default)
	// midStream kills the daemon while requests are in flight (the
	// natural lost-ack generator); otherwise kills happen at pusher
	// quiescence and the dark window forces everything through the spool.
	midStream bool
	// allowed lists the permitted drop reasons; anything else fails.
	allowed []string
	// wantDups requires the daemon's dedup layer to have re-acked at
	// least one duplicate (the sweep injects guaranteed ack loss).
	wantDups bool
}

func deliveryCases(o Options) []deliveryCase {
	seed := o.Seed + 41
	cases := []deliveryCase{
		{
			name:      "net: refused+timeout",
			client:    fault.Plan{ConnRefused: 0.15, ReqTimeout: 0.10, Seed: seed},
			midStream: true,
		},
		{
			name:      "ack loss both sides",
			client:    fault.Plan{MidBodyCut: 0.10, LostAck: 0.10, Seed: seed + 1},
			server:    fault.Plan{LostAck: 0.12, RespCorrupt: 0.08, Seed: seed + 2},
			midStream: true,
			wantDups:  true,
		},
		{
			name:    "disk: spool write faults",
			client:  fault.Plan{ConnRefused: 0.10, Seed: seed + 3},
			disk:    fault.Plan{ShortWrite: 0.03, ENOSPC: 0.03, Seed: seed + 4},
			allowed: []string{witch.DropSpoolError},
		},
		{
			name:     "disk: spool overflow",
			client:   fault.Plan{ConnRefused: 0.05, Seed: seed + 5},
			spoolMax: 2048,
			allowed:  []string{witch.DropSpoolEvict},
		},
	}
	if !o.Quick {
		cases = append(cases, deliveryCase{
			name: "everything at once",
			client: fault.Plan{
				ConnRefused: 0.08, ReqTimeout: 0.05, MidBodyCut: 0.05, LostAck: 0.08,
				Seed: seed + 6,
			},
			server:    fault.Plan{LostAck: 0.08, RespCorrupt: 0.05, Seed: seed + 7},
			midStream: true,
			wantDups:  true,
		})
	}
	return cases
}

// deliveryResult aggregates one sweep's books.
type deliveryResult struct {
	pushed, sent, replayed, spooled, evicted, dropped uint64
	netInjected, chaosInjected, diskInjected          uint64
	dups                                              uint64
}

// deliveryPusher is one pusher across its incarnations, with the
// driver-side cumulative books.
type deliveryPusher struct {
	prof      *witch.Profile
	body      []byte // oracle replays this exact wire body
	spoolDir  string
	spoolMax  int64
	url       string
	urls      []string // extra failover targets (cluster runs)
	clientInj *fault.Injector
	diskInj   *fault.Injector

	p  *witch.Pusher
	rt *http.Transport
	// base is the spool backlog inherited at this incarnation's open —
	// replays of it count toward Sent without ever touching Enqueued,
	// so the quiescence ledger must carry it on the debit side.
	base uint64

	accepted uint64
	sent     uint64
	replayed uint64
	spooled  uint64
	dropped  uint64
	evicted  uint64 // lifetime (spool meta), take the last observation
	byReason map[string]uint64
}

// newDeliveryPusher prepares a pusher of copies of base under its own
// program name — its batches merge into a private accumulator whose
// bytes witness its delivery count — entering at url with urls as
// failover targets. open starts it.
func newDeliveryPusher(base *witch.Profile, program, spoolDir, url string, urls []string) *deliveryPusher {
	prof := *base
	prof.Program = program
	return &deliveryPusher{prof: &prof, body: prof.AppendBinary(nil), spoolDir: spoolDir, url: url, urls: urls, byReason: map[string]uint64{}}
}

// open boots a pusher incarnation over the durable spool dir. faulty
// selects the injected transport and spool; the final drain incarnation
// runs clean so the backlog can actually leave.
func (cp *deliveryPusher) open(faulty bool) error {
	cp.rt = &http.Transport{}
	var rt http.RoundTripper = cp.rt
	var diskInj *fault.Injector
	if faulty {
		rt = &fault.Transport{Inner: rt, Inj: cp.clientInj}
		diskInj = cp.diskInj
	}
	p, err := witch.NewPusher(witch.PusherOptions{
		URL:               cp.url,
		URLs:              cp.urls,
		Queue:             512,
		Backoff:           2 * time.Millisecond,
		Client:            &http.Client{Transport: rt, Timeout: 2 * time.Second},
		BreakerThreshold:  3,
		BreakerCooldown:   20 * time.Millisecond,
		Logf:              func(string, ...any) {},
		SpoolDir:          cp.spoolDir,
		SpoolMaxBytes:     cp.spoolMax,
		SpoolSegmentBytes: 512,
		SpoolInjector:     diskInj,
	})
	if err != nil {
		return fmt.Errorf("pusher open: %w", err)
	}
	cp.p = p
	cp.base = p.Stats().SpoolPending
	return nil
}

// openOwned opens incarnations over fresh durable identities (the
// spool mints and persists one) until accept takes one.
func (cp *deliveryPusher) openOwned(faulty bool, accept func(id string) bool) error {
	for try := 0; try < 200; try++ {
		if err := cp.open(faulty); err != nil {
			return err
		}
		if accept(cp.p.ID()) {
			return nil
		}
		cp.p.Close()
		os.RemoveAll(cp.spoolDir)
	}
	return fmt.Errorf("no pusher identity had the wanted placement in 200 draws")
}

// harvest folds a finished incarnation's counters into the books.
func (cp *deliveryPusher) harvest() {
	s := cp.p.Stats()
	cp.sent += s.Sent
	cp.replayed += s.Replayed
	cp.spooled += s.Spooled
	cp.dropped += s.Dropped
	cp.evicted = s.SpoolEvicted // lifetime counter from the spool meta
	for r, n := range s.DroppedByReason {
		cp.byReason[r] += n
	}
}

// kill is the pusher's kill -9: sender goroutine stopped, spool
// abandoned without sync, in-memory queue state gone.
func (cp *deliveryPusher) kill() {
	cp.p.Abort()
	cp.harvest()
	cp.rt.CloseIdleConnections()
}

// finish closes the final incarnation gracefully and harvests it.
func (cp *deliveryPusher) finish() {
	cp.p.Close()
	cp.harvest()
	cp.rt.CloseIdleConnections()
}

// pushRound feeds n copies of the pusher's profile. A rejected Push is
// a sweep failure: the queue is sized so the only legal backpressure
// paths are the counted spool ones.
func (cp *deliveryPusher) pushRound(n int) error {
	for i := 0; i < n; i++ {
		if !cp.p.Push(cp.prof) {
			return fmt.Errorf("push rejected with queue size 512")
		}
		cp.accepted++
	}
	return nil
}

// quiesced reports whether every profile this incarnation is
// responsible for — the inherited spool backlog plus everything
// enqueued since — has been resolved: acknowledged, counted dropped,
// or parked durably in the spool.
func (cp *deliveryPusher) quiesced(s witch.PusherStats) bool {
	return cp.base+s.Enqueued == s.Sent+s.Dropped+s.SpoolPending
}

// drained additionally requires the spool backlog to be empty.
func (cp *deliveryPusher) drained(s witch.PusherStats) bool {
	return cp.quiesced(s) && s.SpoolPending == 0
}

// await polls cond against the pusher's stats until the deadline.
func (cp *deliveryPusher) await(cond func(witch.PusherStats) bool, what string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond(cp.p.Stats()) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("pusher never %s: %+v", what, cp.p.Stats())
}

func runDeliveryCase(c deliveryCase, base *witch.Profile, pushers, perRound int, seed int64) (deliveryResult, error) {
	var res deliveryResult
	root, err := os.MkdirTemp("", "witch-delivery-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)

	// A frozen clock on both the daemon under test and the oracle: every
	// batch lands in the same retention bucket, so the merged profile is
	// a pure function of the merge count.
	epoch := time.Unix(1700000000, 0)
	now := func() time.Time { return epoch }

	var serverInj *fault.Injector
	if c.server.Enabled() {
		serverInj = fault.NewInjector(c.server)
	}
	// The daemon under torture: a standalone node, killable with its
	// journal abandoned unsynced (the page cache survives a kill -9,
	// which is exactly what reopening the files in-process reads back).
	cns, err := bootCluster(root, 1, now, wal.Options{GroupCommit: true}, func(cn *clusterNode) {
		cn.chaos = serverInj
	})
	if err != nil {
		return res, err
	}
	d := cns[0]
	clientInj := fault.NewInjector(c.client)
	var diskInj *fault.Injector
	if c.disk.Enabled() {
		diskInj = fault.NewInjector(c.disk)
	}

	ps := make([]*deliveryPusher, pushers)
	for i := range ps {
		cp := newDeliveryPusher(base, fmt.Sprintf("prog-%02d", i), filepath.Join(root, fmt.Sprintf("spool-%02d", i)), d.url, nil)
		cp.spoolMax, cp.clientInj, cp.diskInj = c.spoolMax, clientInj, diskInj
		if err := cp.open(true); err != nil {
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
	quiesceAll := func() error {
		return each(func(cp *deliveryPusher) error { return cp.await(cp.quiesced, "quiesced", 60*time.Second) })
	}
	var maxDups uint64
	observeDups := func() {
		st := d.srv.DedupStats()
		if n := st.Duplicates + st.Stale; n > maxDups {
			maxDups = n
		}
	}

	// Round 1, ending in a daemon kill-restart — mid-flight for the
	// ack-loss sweeps (in-flight commits whose acks die with the
	// connection), at quiescence for the drop-permitting sweeps (where a
	// committed-but-unacked batch could otherwise be evicted before its
	// retry, which no bookkeeping can reconcile).
	if err := each(func(cp *deliveryPusher) error { return cp.pushRound(perRound) }); err != nil {
		return res, err
	}
	if c.midStream {
		time.Sleep(30 * time.Millisecond)
	} else if err := quiesceAll(); err != nil {
		return res, err
	}
	observeDups()
	d.kill()

	// Round 2 runs against a dead daemon for the quiescent sweeps (the
	// dark window that forces spooling, spool faults, and eviction);
	// the mid-stream sweeps restart immediately.
	if c.midStream {
		if err := d.start(); err != nil {
			return res, err
		}
	}
	if err := each(func(cp *deliveryPusher) error { return cp.pushRound(perRound) }); err != nil {
		return res, err
	}
	if err := quiesceAll(); err != nil {
		return res, err
	}
	if !c.midStream {
		if err := d.start(); err != nil {
			return res, err
		}
	}

	// Pusher kill-restart: kill -9 every pusher at quiescence (the spool
	// is the only survivor) and reopen over the same spool dirs — the
	// restart must resume the identity, never reuse a sequence, and
	// never replay an acked entry.
	if err := each(func(cp *deliveryPusher) error { cp.kill(); return cp.open(true) }); err != nil {
		return res, err
	}

	// Round 3, then a second daemon kill for the mid-stream sweeps.
	if err := each(func(cp *deliveryPusher) error { return cp.pushRound(perRound) }); err != nil {
		return res, err
	}
	if c.midStream {
		time.Sleep(20 * time.Millisecond)
		observeDups()
		d.kill()
		if err := d.start(); err != nil {
			return res, err
		}
	}
	if err := quiesceAll(); err != nil {
		return res, err
	}

	// Clean drain: fault-free pusher incarnations against a fault-free
	// daemon incarnation, so the surviving backlog can finish. The
	// backlog includes every batch whose ack was lost — their replays
	// are the duplicate re-acks the dedup layer exists for.
	if err := each(func(cp *deliveryPusher) error { cp.kill(); return cp.open(false) }); err != nil {
		return res, err
	}
	observeDups()
	d.kill()
	d.chaos = nil
	if err := d.start(); err != nil {
		return res, err
	}
	if err := each(func(cp *deliveryPusher) error { return cp.await(cp.drained, "drained", 60*time.Second) }); err != nil {
		return res, err
	}
	each(func(cp *deliveryPusher) error { cp.finish(); return nil })
	observeDups()

	// The books must balance exactly: accepted = sent + dropped, and
	// every drop must carry an allowed reason.
	allowed := map[string]bool{}
	for _, r := range c.allowed {
		allowed[r] = true
	}
	for i, cp := range ps {
		if cp.accepted != cp.sent+cp.dropped {
			return res, fmt.Errorf("pusher %d books do not balance: accepted %d != sent %d + dropped %d",
				i, cp.accepted, cp.sent, cp.dropped)
		}
		for reason, n := range cp.byReason {
			if n > 0 && !allowed[reason] {
				return res, fmt.Errorf("pusher %d dropped %d profiles for unpermitted reason %q", i, n, reason)
			}
		}
		res.pushed += cp.accepted
		res.sent += cp.sent
		res.replayed += cp.replayed
		res.spooled += cp.spooled
		res.dropped += cp.dropped
		res.evicted += cp.evicted
	}
	res.netInjected = clientInj.TotalInjected()
	if serverInj != nil {
		res.chaosInjected = serverInj.TotalInjected()
	}
	if diskInj != nil {
		res.diskInjected = diskInj.TotalInjected()
	}
	res.dups = maxDups
	if c.client.Enabled() && res.netInjected == 0 {
		return res, fmt.Errorf("network fault plan enabled but nothing injected")
	}
	if c.server.Enabled() && res.chaosInjected == 0 {
		return res, fmt.Errorf("daemon chaos plan enabled but nothing injected")
	}
	if c.disk.Enabled() && res.diskInjected == 0 {
		return res, fmt.Errorf("spool disk fault plan enabled but nothing injected")
	}
	if c.wantDups && res.dups == 0 {
		return res, fmt.Errorf("ack-loss sweep produced no duplicate re-acks: the idempotency path never fired")
	}
	if c.spoolMax > 0 && res.evicted == 0 {
		return res, fmt.Errorf("overflow sweep with %d-byte spools evicted nothing", c.spoolMax)
	}

	// Oracle: a fault-free in-memory daemon fed exactly the acknowledged
	// batches. Byte-identical /v1/profile per program is the
	// exactly-once proof — a lost acked batch or a double merge shifts
	// the merged counters and the bytes diverge.
	if err := oracleCompare(now, ps, d.url); err != nil {
		return res, err
	}
	if err := d.stop(); err != nil {
		return res, fmt.Errorf("daemon graceful stop: %w", err)
	}
	return res, nil
}

// oracleCompare rebuilds the fault-free truth — a memory-only node fed
// exactly the acknowledged batches — and compares every node's merged
// GET /v1/profile for every pusher's program against it, byte for
// byte. A lost acked batch or a double merge shifts the merged
// counters and the bytes diverge; an answer still marked
// X-Witch-Incomplete fails outright.
func oracleCompare(now func() time.Time, ps []*deliveryPusher, urls ...string) error {
	oracle, err := daemon.OpenNode(daemon.NodeConfig{
		Store:  store.Config{Now: now},
		Server: daemon.Config{Now: now},
	})
	if err != nil {
		return err
	}
	oh := oracle.Handler()
	for i, cp := range ps {
		for k := uint64(0); k < cp.sent; k++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(cp.body))
			req.Header.Set("Content-Type", witch.BinaryContentType)
			rec := httptest.NewRecorder()
			oh.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("oracle ingest for pusher %d: %d %s", i, rec.Code, rec.Body.String())
			}
		}
	}
	for i, cp := range ps {
		q := "/v1/profile?tool=" + cp.prof.Tool + "&program=" + cp.prof.Program
		rec := httptest.NewRecorder()
		oh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
		for _, url := range urls {
			resp, err := http.Get(url + q)
			if err != nil {
				return fmt.Errorf("querying node %s: %w", url, err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != rec.Code {
				return fmt.Errorf("pusher %d (%d acked): node %s answered %d, oracle %d",
					i, cp.sent, url, resp.StatusCode, rec.Code)
			}
			if inc := resp.Header.Get("X-Witch-Incomplete"); inc != "" {
				return fmt.Errorf("node %s still partial: %s", url, inc)
			}
			if !bytes.Equal(got, rec.Body.Bytes()) {
				return fmt.Errorf("pusher %d (%d acked): node %s diverges from the fault-free oracle — acked loss or double merge\n got: %.200s\nwant: %.200s",
					i, cp.sent, url, got, rec.Body.Bytes())
			}
		}
	}
	return nil
}
