package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/witch"
)

// ReplicationConfig sizes the replication engine: synchronous fanout to
// the other replica-set members, durable hinted handoff for the ones
// that are down, and background anti-entropy repair.
type ReplicationConfig struct {
	// HintMaxBytes bounds one peer's hint journal; overflow evicts the
	// oldest hints (counted), leaving convergence to repair
	// (default 64 MiB, negative = unbounded).
	HintMaxBytes int64
	// DrainInterval is the hint-replay cadence (default 1s).
	DrainInterval time.Duration
	// RepairInterval is the anti-entropy cadence (default 30s,
	// negative disables the background loop; RepairNow still works).
	RepairInterval time.Duration
	// Logf receives replication diagnostics (default: silent).
	Logf func(string, ...any)
}

// replication is the running engine: the hint store plus the drain and
// repair loops.
type replication struct {
	s      *Server
	cfg    ReplicationConfig
	hints  *hintStore
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	stopped  atomic.Bool
	repairMu sync.Mutex // one repair round at a time (loop vs RepairNow)

	fanoutRejected  atomic.Uint64 // fanout legs a follower durably refused (no hint queued)
	repairRounds    atomic.Uint64
	repairPulls     atomic.Uint64
	repairConflicts atomic.Uint64
	repairErrors    atomic.Uint64
}

// ReplicationStats is the engine's /healthz and /metrics snapshot.
type ReplicationStats struct {
	HintsQueued       uint64          `json:"hints_queued"`
	HintsReplayed     uint64          `json:"hints_replayed"`
	HintsDropped      uint64          `json:"hints_dropped"`
	HintsRejected     uint64          `json:"hints_rejected"`
	HintAppendErrors  uint64          `json:"hint_append_errors"`
	HintsPending      int             `json:"hints_pending"`
	HintPeers         []HintPeerStats `json:"hint_peers,omitempty"`
	ReplicateRejected uint64          `json:"replicate_rejected"`
	RepairRounds      uint64          `json:"repair_rounds"`
	RepairPulls       uint64          `json:"repair_pulls"`
	RepairConflicts   uint64          `json:"repair_conflicts"`
	RepairErrors      uint64          `json:"repair_errors"`
}

// startReplication boots the engine with its hint journals under
// hintDir ("" = in-memory hints, matching a memory-only daemon's
// volatility). OpenNode calls it right after the cluster router is set
// and before the node serves: the ingest path reads s.repl without a
// lock, so the handoff must happen before requests can race it, and
// every clustered node has an engine by the time it serves.
func (s *Server) startReplication(cfg ReplicationConfig, hintDir string, hintOpts wal.Options) error {
	if cfg.HintMaxBytes == 0 {
		cfg.HintMaxBytes = 64 << 20
	}
	if cfg.DrainInterval <= 0 {
		cfg.DrainInterval = time.Second
	}
	if cfg.RepairInterval == 0 {
		cfg.RepairInterval = 30 * time.Second
	}
	// 1 MiB hint segments keep the per-peer byte bound enforceable.
	if hintOpts.SegmentBytes == 0 {
		hintOpts.SegmentBytes = 1 << 20
	}
	hints, err := openHintStore(hintDir, cfg.HintMaxBytes, hintOpts, s.cl.Others(), cfg.Logf)
	if err != nil {
		return err
	}
	r := &replication{s: s, cfg: cfg, hints: hints}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	s.repl = r
	r.wg.Add(1)
	go r.drainLoop()
	if cfg.RepairInterval > 0 {
		r.wg.Add(1)
		go r.repairLoop()
	}
	return nil
}

// stopReplication stops the loops and closes the hint journals
// gracefully (undelivered hints stay on disk for the next boot). The
// engine stays attached so concurrent readers of s.repl never see it
// vanish; Drain calls it after ingest is gated.
func (s *Server) stopReplication() {
	r := s.repl
	if r == nil || !r.stopped.CompareAndSwap(false, true) {
		return
	}
	r.cancel()
	r.wg.Wait()
	r.hints.close()
}

// abortReplication is the kill path: stop the loops and drop the hint
// journals without syncing, mirroring persistence.Abandon.
func (s *Server) abortReplication() {
	r := s.repl
	if r == nil || !r.stopped.CompareAndSwap(false, true) {
		return
	}
	r.cancel()
	r.wg.Wait()
	r.hints.abandon()
}

// DrainHintsNow runs one synchronous hint-drain sweep — the test and
// harness hook for deterministic convergence waits.
func (s *Server) DrainHintsNow(ctx context.Context) {
	if s.repl != nil {
		s.repl.drainOnce(ctx)
	}
}

// RepairNow runs one synchronous anti-entropy round.
func (s *Server) RepairNow(ctx context.Context) {
	if s.repl != nil {
		s.repl.repairRound(ctx)
	}
}

// ReplicationStats snapshots the engine's counters (zero value when the
// engine is not running).
func (s *Server) ReplicationStats() ReplicationStats {
	if s.repl == nil {
		return ReplicationStats{}
	}
	return s.repl.stats()
}

func (r *replication) stats() ReplicationStats {
	peers := r.hints.stats()
	pending := 0
	for _, p := range peers {
		pending += p.Pending
	}
	return ReplicationStats{
		HintsQueued:       r.hints.queued.Load(),
		HintsReplayed:     r.hints.replayed.Load(),
		HintsDropped:      r.hints.dropped.Load(),
		HintsRejected:     r.hints.rejected.Load(),
		HintAppendErrors:  r.hints.appendErrors.Load(),
		HintsPending:      pending,
		HintPeers:         peers,
		ReplicateRejected: r.fanoutRejected.Load(),
		RepairRounds:      r.repairRounds.Load(),
		RepairPulls:       r.repairPulls.Load(),
		RepairConflicts:   r.repairConflicts.Load(),
		RepairErrors:      r.repairErrors.Load(),
	}
}

// fanout pushes one keyed batch to every other replica-set member
// before the coordinator's own commit. A reachable member must ack
// durably (its /v1/replicate journals before answering); an unreachable
// one gets a durable hint instead. Only when neither works — peer down
// AND the hint journal failing — does the batch shed, un-acked. A peer
// with hints already queued gets this batch hinted too, behind them:
// replicating around a backlog would deliver sequences out of order,
// and a gap wider than the peer's dedup window turns the late hints
// into discarded stale re-acks.
//
// A durable refusal (permanent 4xx — the follower rejects these exact
// bytes, and always will) is NOT hinted: the hint would sit at the
// queue head rejecting forever, pinning every newer hint for that peer
// behind it. The leg is counted and skipped; the batch still acks on
// the coordinator's own durability, and anti-entropy repair remains
// the follower's route to the data.
func (r *replication) fanout(ctx context.Context, id string, seq uint64, ctype string, body []byte, now time.Time) error {
	o := r.s.cfg.Obs
	for _, peer := range r.s.cl.ReplicaSet(id) {
		if peer == r.s.cl.Self() {
			continue
		}
		if r.s.cl.Available(peer) && r.hints.pendingCount(peer) == 0 {
			_, err := r.s.cl.Replicate(ctx, peer, ctype, id, seq, now, body)
			if err == nil {
				continue
			}
			var pde *cluster.PeerDownError
			if errors.As(err, &pde) && pde.Permanent() {
				r.fanoutRejected.Add(1)
				if r.cfg.Logf != nil {
					r.cfg.Logf("witchd: replica %s durably rejected %s/%d (status %d), not hinting", peer, id, seq, pde.Status)
				}
				continue
			}
		}
		ht0 := o.Start()
		err := r.hints.append(peer, now, id, seq, ctype, body)
		o.StageSince(obs.StageHintAppend, ht0)
		if err != nil {
			return fmt.Errorf("replica %s unreachable and hint not durable: %v", peer, err)
		}
	}
	return nil
}

// handleReplicate applies one keyed batch on behalf of its coordinator,
// through serveBatch like first-hand ingest — dedup window,
// journal-before-ack — at the coordinator's ingest timestamp, so both
// replicas bucket it identically. It never re-fanouts (the coordinator
// owns RF), and a duplicate re-acks 200: hint replays and coordinator
// retries must converge, not error.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cl == nil {
		httpError(w, http.StatusBadRequest, "replicate: not clustered")
		return
	}
	if s.ringRejected(w, r) {
		return
	}
	s.serveBatch(w, r, func() (b batch, ok bool) {
		seq, err := strconv.ParseUint(r.Header.Get(witch.PusherSeqHeader), 10, 64)
		b.id, b.seq, b.keyed = r.Header.Get(witch.PusherIDHeader), seq, true
		if b.id == "" || err != nil {
			s.rejected.Add(1)
			httpError(w, http.StatusBadRequest, "replicate: pusher id and sequence headers are required")
			return b, false
		}
		// The coordinator's clock, not ours: replicas must agree on which
		// retention bucket a batch lands in, or their digests would differ
		// forever at bucket boundaries.
		if ns, err := strconv.ParseInt(r.Header.Get(cluster.TimestampHeader), 10, 64); err == nil {
			b.at = time.Unix(0, ns)
		}
		// The replica's span joins the coordinator's trace (the
		// replicate_leg span on the other side is its parent). No header,
		// no span: hint drains and repair-era coordinators would otherwise
		// mint orphan traces per replayed batch.
		if th := r.Header.Get(obs.TraceHeader); th != "" {
			b.sp = s.cfg.Obs.StartSpan(th, "replicate_apply")
			b.sp.Annotate(b.id, b.seq)
		}
		return b, true
	}, func(b *batch, profs []*witch.Profile, _ *bytes.Buffer, err error) {
		if err != nil {
			b.sp.Fail(err.Error())
		} else {
			s.replicatedIn.Add(1)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"replicated\":%d}\n", len(profs))
		}
		b.sp.End()
	})
}

// drainLoop replays queued hints to healed peers.
func (r *replication) drainLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.DrainInterval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			r.drainOnce(r.ctx)
		}
	}
}

// drainOnce sweeps every peer with queued hints whose breaker looks
// closed, replaying oldest-first through /v1/replicate.
func (r *replication) drainOnce(ctx context.Context) {
	for _, peer := range r.s.cl.Others() {
		if ctx.Err() != nil {
			return
		}
		if r.hints.pendingCount(peer) == 0 || !r.s.cl.Available(peer) {
			continue
		}
		peer := peer
		r.hints.drain(ctx, peer, func(ts time.Time, id string, seq uint64, ctype string, body []byte) error {
			_, err := r.s.cl.Replicate(ctx, peer, ctype, id, seq, ts, body)
			var pde *cluster.PeerDownError
			if err != nil && errors.As(err, &pde) && pde.Permanent() {
				// The healed peer will refuse this hint forever; retire it
				// so it cannot wedge the queue (see errHintRejected).
				if r.cfg.Logf != nil {
					r.cfg.Logf("witchd: hint %s/%d durably rejected by %s (status %d), retiring", id, seq, peer, pde.Status)
				}
				return errHintRejected
			}
			return err
		})
	}
}

// repairLoop runs anti-entropy on its cadence.
func (r *replication) repairLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			r.repairRound(r.ctx)
		}
	}
}

// repairRound compares this node's per-pusher (maxSeq, checksum) digest
// against every reachable peer's and pulls any partition this node
// should replicate but holds a worse copy of: missing entirely, behind
// on sequences, or — at equal sequence but differing checksum — owned
// more authoritatively by the peer (owner wins; counted as a conflict).
// A partition this node still has queued hints for is skipped until the
// drain clears them: those hints are local batches the peer may lack,
// and adopting the peer's image first would replace a superset with a
// subset. Pulled rounds end in a snapshot checkpoint so the adopted
// state (absent from the local journal) survives a restart.
func (r *replication) repairRound(ctx context.Context) {
	r.repairMu.Lock()
	defer r.repairMu.Unlock()
	r.repairRounds.Add(1)
	cl := r.s.cl
	local := r.s.digestLocal()
	for _, peer := range cl.Others() {
		if ctx.Err() != nil {
			return
		}
		if !cl.Available(peer) {
			continue
		}
		dig, err := cl.FetchDigest(ctx, peer)
		if err != nil {
			continue // unreachable peers are the breaker's problem, not repair's
		}
		if dig.Ring != cl.RingHash() {
			r.repairErrors.Add(1)
			continue
		}
		ids := make([]string, 0, len(dig.Pushers))
		for id := range dig.Pushers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		pulled := false
		for _, id := range ids {
			if ctx.Err() != nil {
				return
			}
			if !cl.InReplicaSet(id, cl.Self()) {
				continue
			}
			de := dig.Pushers[id]
			le, have := local[id]
			conflict := false
			switch {
			case !have:
			case de.Max > le.Max:
			case de.Max == le.Max && de.N > le.N:
				// Same frontier, fewer merges here: this copy is a
				// gap-riddled suffix (a blank restart fed mid-sequence
				// hint replays), not round-off noise. The fuller copy
				// wins regardless of preference order — preferring the
				// owner here could replicate the holes back out.
			case de.Max == le.Max && de.N == le.N && de.Sum != le.Sum &&
				cl.PreferenceIndex(id, peer) < cl.PreferenceIndex(id, cl.Self()):
				conflict = true
			default:
				continue
			}
			if r.hints.pendingFor(id) > 0 {
				continue
			}
			pt, err := cl.FetchPartition(ctx, peer, id)
			if err != nil || pt.Image == nil {
				if err != nil {
					r.repairErrors.Add(1)
				}
				continue
			}
			r.s.adoptPartition(id, pt)
			r.repairPulls.Add(1)
			if conflict {
				r.repairConflicts.Add(1)
			}
			local[id] = r.s.digestEntry(id)
			pulled = true
			if r.cfg.Logf != nil {
				r.cfg.Logf("witchd: repair pulled pusher %s from %s (max %d)", id, peer, pt.DedupMax)
			}
		}
		if pulled && r.s.pers != nil {
			if err := r.s.pers.Checkpoint(); err != nil {
				r.repairErrors.Add(1)
			}
		}
	}
}

// adoptPartition installs a pulled partition — store image and dedup
// window together, under the write side of the apply barrier so no
// batch apply interleaves with the swap, on memory-only and persistent
// nodes alike. Lock order is the critical part: Dedup.Adopt takes the
// pusher's window lock FIRST and only then the barrier. serveBatch
// orders the same two locks the same way (Process holds w.mu across
// the apply's applyMu.RLock), so an adoption racing an in-flight batch
// for the same pusher serializes cleanly instead of deadlocking with
// the apply write lock held.
func (s *Server) adoptPartition(id string, pt *cluster.PartitionTransfer) {
	s.ded.Adopt(id, pt.DedupMax, pt.DedupBits, func(install func()) {
		s.applyMu.Lock()
		defer s.applyMu.Unlock()
		s.st.ReplacePartition(id, pt.Image)
		install()
	})
}

// digestLocal builds this node's anti-entropy digest: every pusher the
// store or the dedup table knows, with its highest accepted sequence
// and a checksum of the partition's merged state. Every row reads one
// all-time export. The anonymous partition is not addressable for
// replication, so it has no row.
func (s *Server) digestLocal() map[string]cluster.DigestEntry {
	maxs := s.ded.MaxSeqs()
	exp := s.st.Export(0)
	ids := make(map[string]bool, len(maxs)+len(exp.Parts))
	for id := range maxs {
		ids[id] = true
	}
	for id := range exp.Parts {
		ids[id] = true
	}
	delete(ids, "")
	out := make(map[string]cluster.DigestEntry, len(ids))
	for id := range ids {
		n, sum := partitionFingerprint(exp, id)
		out[id] = cluster.DigestEntry{Max: maxs[id], N: n, Sum: sum}
	}
	return out
}

// digestEntry recomputes one pusher's digest row (after a repair pull).
// Its export miss rebuilds only the adopted partition.
func (s *Server) digestEntry(id string) cluster.DigestEntry {
	max, _ := s.ded.WindowOf(id)
	n, sum := partitionFingerprint(s.st.Export(0), id)
	return cluster.DigestEntry{Max: max, N: n, Sum: sum}
}

// emptyPartition is what a pusher with no data anywhere in the store
// (one the dedup table alone knows) fingerprints as.
var emptyPartition agg.State

// partitionFingerprint returns pusher id's merge count and checksum
// from an all-time export: FNV-1a over its State's binary encoding
// (agg.EncodeState), which is canonical — the bytes are a function of the
// value — so equal data hashes to equal sums on every node. Replicas
// that merged the same batches in a different order can still differ
// in float round-off; the one redundant pull that triggers adopts the
// owner's image verbatim, after which the sums are equal.
func partitionFingerprint(exp *store.Export, id string) (uint64, string) {
	st := exp.Parts[id]
	if st == nil {
		st = &emptyPartition
	}
	var n uint64
	for i := range st.Metas {
		n += st.Metas[i].Profiles
	}
	e := agg.NewEncoder(nil)
	agg.EncodeState(e, st)
	h := fnv.New64a()
	h.Write(e.Bytes())
	return n, fmt.Sprintf("%016x", h.Sum64())
}

// partitionSum is the checksum half of partitionFingerprint (tests
// compare convergence on it).
func (s *Server) partitionSum(id string) string {
	_, sum := partitionFingerprint(s.st.Export(0), id)
	return sum
}

// handleDigest serves the anti-entropy digest peers diff against.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cl == nil {
		httpError(w, http.StatusBadRequest, "digest: not clustered")
		return
	}
	if s.ringRejected(w, r) {
		return
	}
	d := cluster.Digest{Self: s.cl.Self(), Ring: s.cl.RingHash(), Pushers: s.digestLocal()}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&d)
}
