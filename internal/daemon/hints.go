package daemon

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// Hinted handoff: when a replica-set member is unreachable at ack
// time, the coordinator does not drop RF — it journals a hint record
// (the full batch plus its key and arrival time) in a per-peer hint
// journal, durably, before acking the pusher. A background drainer
// replays hints through the normal /v1/replicate path when the peer
// heals; the peer's dedup window makes replays idempotent, so a crash
// between replay and cursor advance re-sends harmlessly.
//
// Hint record framing (inside a wal record payload):
//
//	[8-byte big-endian unix-nano]
//	[uvarint len(id)][id]
//	[uvarint seq]
//	[uvarint len(ctype)][ctype]
//	[body]
func encodeHint(ts time.Time, id string, seq uint64, ctype string, body []byte) []byte {
	rec := make([]byte, 8, 8+2*binary.MaxVarintLen64+len(id)+len(ctype)+len(body))
	binary.BigEndian.PutUint64(rec, uint64(ts.UnixNano()))
	rec = binary.AppendUvarint(rec, uint64(len(id)))
	rec = append(rec, id...)
	rec = binary.AppendUvarint(rec, seq)
	rec = binary.AppendUvarint(rec, uint64(len(ctype)))
	rec = append(rec, ctype...)
	return append(rec, body...)
}

func decodeHint(payload []byte) (ts time.Time, id string, seq uint64, ctype string, body []byte, ok bool) {
	if len(payload) < 8 {
		return ts, "", 0, "", nil, false
	}
	ts = time.Unix(0, int64(binary.BigEndian.Uint64(payload)))
	rest := payload[8:]
	idLen, n := uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < idLen {
		return ts, "", 0, "", nil, false
	}
	id = string(rest[n : n+int(idLen)])
	rest = rest[n+int(idLen):]
	seq, n = uvarint(rest)
	if n <= 0 {
		return ts, "", 0, "", nil, false
	}
	rest = rest[n:]
	ctLen, n := uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < ctLen {
		return ts, "", 0, "", nil, false
	}
	ctype = string(rest[n : n+int(ctLen)])
	return ts, id, seq, ctype, rest[n+int(ctLen):], true
}

// hintPeer is one destination peer's hint queue. mu serializes appends
// against drains, so a drain never races a write into the same
// journal.
type hintPeer struct {
	mu    sync.Mutex
	j     *wal.Journal // nil in memory mode
	dir   string
	acked uint64 // highest LSN confirmed replicated (disk mode)
	// mem queues encoded hint records, oldest first, in memory-only mode
	// (no data dir: the daemon itself is volatile, so volatile hints
	// lower nothing).
	mem [][]byte
	// pending/bytes/perID mirror the queued records (the journal suffix
	// past acked) so metrics and the repair guard never scan disk; bytes
	// counts encoded record lengths in both modes. Guarded by mu.
	pending int
	bytes   int64
	perID   map[string]int
}

// hintStore manages every peer's hint queue.
type hintStore struct {
	dir      string // "" = memory mode
	maxBytes int64
	walOpts  wal.Options
	logf     func(string, ...any)

	mu    sync.Mutex
	peers map[string]*hintPeer

	queued       atomic.Uint64 // hints accepted (durable or queued)
	replayed     atomic.Uint64 // hints delivered to their peer
	dropped      atomic.Uint64 // hints lost to the per-peer byte bound
	rejected     atomic.Uint64 // hints a healed peer durably refused (4xx)
	appendErrors atomic.Uint64 // hint appends that failed (batch was shed)
}

// sanitizePeer turns a peer URL into a directory name.
func sanitizePeer(peer string) string {
	out := make([]byte, len(peer))
	for i := 0; i < len(peer); i++ {
		c := peer[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '.' || c == '-' {
			out[i] = c
		} else {
			out[i] = '_'
		}
	}
	return string(out)
}

// openHintStore builds the store and reopens any hint journals a
// previous process left behind, recounting their pending suffixes —
// hints are acked-data copies and must survive the coordinator's own
// crash.
func openHintStore(dir string, maxBytes int64, walOpts wal.Options, peers []string, logf func(string, ...any)) (*hintStore, error) {
	hs := &hintStore{
		dir:      dir,
		maxBytes: maxBytes,
		walOpts:  walOpts,
		logf:     logf,
		peers:    make(map[string]*hintPeer),
	}
	if dir == "" {
		return hs, nil
	}
	for _, peer := range peers {
		pdir := filepath.Join(dir, sanitizePeer(peer))
		if _, err := os.Stat(pdir); err != nil {
			continue // no leftover hints for this peer
		}
		hp, err := hs.openPeer(peer)
		if err != nil {
			return nil, err
		}
		_ = hp
	}
	return hs, nil
}

// peerFor returns (creating if needed) the peer's queue.
func (hs *hintStore) peerFor(peer string) (*hintPeer, error) {
	hs.mu.Lock()
	hp := hs.peers[peer]
	hs.mu.Unlock()
	if hp != nil {
		return hp, nil
	}
	return hs.openPeer(peer)
}

func (hs *hintStore) openPeer(peer string) (*hintPeer, error) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hp := hs.peers[peer]; hp != nil {
		return hp, nil
	}
	hp := &hintPeer{perID: make(map[string]int)}
	if hs.dir != "" {
		hp.dir = filepath.Join(hs.dir, sanitizePeer(peer))
		if err := os.MkdirAll(hp.dir, 0o755); err != nil {
			return nil, fmt.Errorf("hint dir for %s: %w", peer, err)
		}
		j, err := wal.Open(hp.dir, hs.walOpts)
		if err != nil {
			return nil, fmt.Errorf("hint journal for %s: %w", peer, err)
		}
		hp.j = j
		hp.mu.Lock()
		hp.recountLocked()
		hp.mu.Unlock()
	}
	hs.peers[peer] = hp
	return hp, nil
}

// recountLocked rebuilds the pending counters from the journal suffix
// past acked. Caller holds hp.mu; disk mode only.
func (hp *hintPeer) recountLocked() {
	hp.pending, hp.bytes = 0, 0
	hp.perID = make(map[string]int)
	_ = wal.Replay(hp.dir, hp.acked, func(r wal.Record) error {
		_, id, _, _, _, ok := decodeHint(r.Payload)
		if !ok {
			return nil
		}
		hp.pending++
		hp.bytes += int64(len(r.Payload))
		hp.perID[id]++
		return nil
	})
}

// append queues one batch for peer, durably in disk mode: the append
// (and its fsync, per the wal options) completes before the
// coordinator may ack the pusher. An error means the hint is NOT safe
// and the batch must be shed un-acked.
func (hs *hintStore) append(peer string, ts time.Time, id string, seq uint64, ctype string, body []byte) error {
	hp, err := hs.peerFor(peer)
	if err != nil {
		hs.appendErrors.Add(1)
		return err
	}
	rec := encodeHint(ts, id, seq, ctype, body)
	hp.mu.Lock()
	defer hp.mu.Unlock()
	if hp.j != nil {
		if _, err := hp.j.Append(rec); err != nil {
			hs.appendErrors.Add(1)
			return err
		}
	} else {
		hp.mem = append(hp.mem, rec)
	}
	hp.pending++
	hp.bytes += int64(len(rec))
	hp.perID[id]++
	hs.queued.Add(1)
	if hp.j != nil {
		hs.enforceBoundLocked(hp, peer)
		return nil
	}
	for hs.maxBytes > 0 && hp.bytes > hs.maxBytes && len(hp.mem) > 0 {
		hp.popLocked()
		hs.dropped.Add(1)
	}
	return nil
}

// popLocked dequeues the oldest memory-mode record and takes it off the
// counters. Caller holds hp.mu.
func (hp *hintPeer) popLocked() {
	_, id, _, _, _, _ := decodeHint(hp.mem[0])
	hp.pending--
	hp.bytes -= int64(len(hp.mem[0]))
	hp.perID[id]--
	hp.mem = hp.mem[1:]
}

// enforceBoundLocked evicts oldest hint segments past the byte bound.
// Dropped hints are counted, not lost forever: the data still lives on
// this node, and anti-entropy repair re-converges the peer when it
// returns (slower than a hint replay, but bounded disk wins). Caller
// holds hp.mu; disk mode only.
func (hs *hintStore) enforceBoundLocked(hp *hintPeer, peer string) {
	if hs.maxBytes <= 0 || hp.j.SizeBytes() <= hs.maxBytes {
		return
	}
	for hp.j.SizeBytes() > hs.maxBytes {
		first, last, ok, err := hp.j.EvictOldest()
		if err != nil {
			if hs.logf != nil {
				hs.logf("witchd: hint eviction for %s: %v", peer, err)
			}
			return
		}
		if !ok {
			// Only the active segment remains; rotate it out and retry
			// once so the bound is enforceable even mid-segment.
			if err := hp.j.Rotate(); err != nil {
				return
			}
			if _, _, ok, _ = hp.j.EvictOldest(); !ok {
				return
			}
		}
		_ = first
		if last > hp.acked {
			hp.acked = last
		}
	}
	before := hp.pending
	hp.recountLocked()
	if before > hp.pending {
		hs.dropped.Add(uint64(before - hp.pending))
	}
}

// pending reports one peer's queued hint count.
func (hs *hintStore) pendingCount(peer string) int {
	hs.mu.Lock()
	hp := hs.peers[peer]
	hs.mu.Unlock()
	if hp == nil {
		return 0
	}
	hp.mu.Lock()
	defer hp.mu.Unlock()
	return hp.pending
}

// pendingFor reports how many queued hints (any peer) carry pusher id.
// The repair loop refuses to pull a partition while its own undelivered
// hints still reference it: those hints are local batches the digest
// source may lack, and a pull would replace the superset with the
// subset. Draining first removes the hazard.
func (hs *hintStore) pendingFor(id string) int {
	hs.mu.Lock()
	peers := make([]*hintPeer, 0, len(hs.peers))
	for _, hp := range hs.peers {
		peers = append(peers, hp)
	}
	hs.mu.Unlock()
	n := 0
	for _, hp := range peers {
		hp.mu.Lock()
		n += hp.perID[id]
		hp.mu.Unlock()
	}
	return n
}

// errHintStop aborts a drain replay at the first undeliverable hint
// (order must be preserved per peer — skipping would reorder batches
// around the dedup window's stale bound).
var errHintStop = errors.New("hint drain: peer failed mid-replay")

// errHintRejected marks a hint the healed peer durably refused (a
// permanent 4xx verdict: same bytes, same answer, forever). Unlike a
// transport failure it does NOT stop the drain — the hint is retired
// (counted rejected) and the queue moves on, because a hint that can
// never land would otherwise pin every newer hint for that peer until
// byte-bound eviction silently dropped them all. The data is still on
// this node; anti-entropy repair remains the follower's path to it.
var errHintRejected = errors.New("hint drain: peer durably rejected hint")

// drain replays peer's queued hints through send, oldest first,
// stopping at the first failure. send is the /v1/replicate leg; the
// peer's dedup window makes re-sends after a cursor crash idempotent.
// A send returning errHintRejected retires that hint and continues.
func (hs *hintStore) drain(ctx context.Context, peer string, send func(ts time.Time, id string, seq uint64, ctype string, body []byte) error) {
	hp, err := hs.peerFor(peer)
	if err != nil {
		return
	}
	hp.mu.Lock()
	defer hp.mu.Unlock()
	if hp.j == nil {
		for len(hp.mem) > 0 {
			ts, id, seq, ctype, body, _ := decodeHint(hp.mem[0])
			err := send(ts, id, seq, ctype, body)
			if err != nil && !errors.Is(err, errHintRejected) {
				return
			}
			hp.popLocked()
			if err != nil {
				hs.rejected.Add(1)
			} else {
				hs.replayed.Add(1)
			}
			if ctx.Err() != nil {
				return
			}
		}
		return
	}
	start := hp.acked
	_ = wal.Replay(hp.dir, hp.acked, func(r wal.Record) error {
		ts, id, seq, ctype, body, ok := decodeHint(r.Payload)
		if !ok {
			// Unreadable hint: skip it (counted dropped) rather than
			// wedging the queue forever.
			hp.acked = r.LSN
			hs.dropped.Add(1)
			return nil
		}
		if err := send(ts, id, seq, ctype, body); err != nil {
			if !errors.Is(err, errHintRejected) {
				return errHintStop
			}
			hp.acked = r.LSN
			hs.rejected.Add(1)
			return nil
		}
		hp.acked = r.LSN
		hs.replayed.Add(1)
		if ctx.Err() != nil {
			return errHintStop
		}
		return nil
	})
	if hp.acked > start {
		hp.recountLocked()
		_, _ = hp.j.RemoveThrough(hp.acked)
	}
}

// HintPeerStats is one peer's row in the hint metrics.
type HintPeerStats struct {
	Peer    string `json:"peer"`
	Pending int    `json:"pending"`
	Bytes   int64  `json:"bytes"`
}

// stats returns per-peer pending hints, sorted by peer.
func (hs *hintStore) stats() []HintPeerStats {
	hs.mu.Lock()
	names := make([]string, 0, len(hs.peers))
	for p := range hs.peers {
		names = append(names, p)
	}
	hs.mu.Unlock()
	sort.Strings(names)
	out := make([]HintPeerStats, 0, len(names))
	for _, p := range names {
		hs.mu.Lock()
		hp := hs.peers[p]
		hs.mu.Unlock()
		hp.mu.Lock()
		out = append(out, HintPeerStats{Peer: p, Pending: hp.pending, Bytes: hp.bytes})
		hp.mu.Unlock()
	}
	return out
}

// hintedPushers maps each pusher id with queued hints anywhere to the
// sorted destination peers those hints are bound for. This is the
// ledger a /v1/shard export ships alongside the data: a node holding
// hints for a pusher provably holds that pusher's batches locally too
// (hint and journal record were written by the same ack), so the query
// gather prefers it as the partition holder over a destination that
// may not have caught up yet. Returns nil when nothing is queued.
func (hs *hintStore) hintedPushers() map[string][]string {
	hs.mu.Lock()
	names := make([]string, 0, len(hs.peers))
	for p := range hs.peers {
		names = append(names, p)
	}
	hs.mu.Unlock()
	sort.Strings(names)
	var out map[string][]string
	for _, p := range names {
		hs.mu.Lock()
		hp := hs.peers[p]
		hs.mu.Unlock()
		hp.mu.Lock()
		for id, n := range hp.perID {
			if n <= 0 {
				continue
			}
			if out == nil {
				out = make(map[string][]string)
			}
			out[id] = append(out[id], p)
		}
		hp.mu.Unlock()
	}
	return out
}

// totalPending sums every peer's queue.
func (hs *hintStore) totalPending() int {
	n := 0
	for _, st := range hs.stats() {
		n += st.Pending
	}
	return n
}

// close flushes and closes every hint journal (graceful shutdown).
func (hs *hintStore) close() {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	for _, hp := range hs.peers {
		if hp.j != nil {
			hp.j.Close()
		}
	}
}

// abandon drops the journals without syncing — the kill -9 path.
func (hs *hintStore) abandon() {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	for _, hp := range hs.peers {
		if hp.j != nil {
			hp.j.Abandon()
		}
	}
}
