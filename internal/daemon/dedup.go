package daemon

import (
	"fmt"
	"sync"

	"repro/internal/agg"
)

// Dedup is witchd's half of exactly-once ingest: a bounded per-pusher
// window over the (pusher ID, sequence) idempotency keys that batches
// carry. A batch whose key was already processed is re-acked without
// being journaled or merged — safe precisely because the original was
// journaled before its ack, so the data is durable whether or not that
// ack survived the network.
//
// Window semantics, per pusher (window width W):
//
//   - seq > max: never seen — process and mark, advancing max.
//   - max-W < seq <= max, bit set: duplicate — re-ack.
//   - max-W < seq <= max, bit clear: out-of-order first arrival —
//     process and mark.
//   - seq <= max-W: stale, beyond the window's memory. Treated as a
//     duplicate (counted separately): re-acking a possibly-new batch
//     loses at most that batch, while merging a possibly-seen batch
//     corrupts the aggregate forever. Pushers deliver roughly in
//     order (the spool replays oldest-first), so a W-deep reordering
//     never happens in practice; W is surfaced in /healthz so an
//     operator can see the bound they are trusting.
//
// Marking happens only after the batch is journaled and merged — a
// failed journal append must leave the key unseen so the retry is
// processed, not re-acked into the void. To keep check-then-mark
// atomic, Process holds the pusher's entry lock across the batch
// apply; batches from different pushers proceed in parallel, batches
// from one pusher serialize (which the wire already guarantees: a
// pusher has one sender).
//
// The pusher table itself is bounded: beyond MaxPushers the
// least-recently-active pusher's window is evicted (counted). Two
// guards keep eviction from un-acking history. A window with a batch
// mid-apply is pinned (refs) and never a victim — evicting it would
// orphan the commit mark and let a retried duplicate double-merge.
// And an evicted window leaves a tombstone carrying its high-water
// sequence: if that pusher comes back (a spool replay after a long
// partition, a forwarded re-ingest), its fresh window resumes at the
// tombstone's max with every in-window bit marked seen, so an old
// sequence re-acks instead of re-merging. The tombstone table is
// bounded at MaxPushers as well; only beyond 2×MaxPushers distinct
// pushers does memory of an acked key truly expire.
type Dedup struct {
	mu      sync.Mutex
	window  uint64
	maxP    int
	pushers map[string]*pusherWindow
	tombs   map[string]tombstone
	tick    uint64

	dups    uint64 // duplicate re-acks inside the window
	stale   uint64 // conservative re-acks below the window
	evicted uint64 // pusher windows dropped by the table bound
}

// pusherWindow is one pusher's dedup state. mu serializes that
// pusher's batches through check→apply→mark.
type pusherWindow struct {
	mu   sync.Mutex
	max  uint64
	bits []uint64
	last uint64 // LRU tick, guarded by Dedup.mu
	refs int    // in-flight batches pinning this window, guarded by Dedup.mu
}

// tombstone is the memory an evicted window leaves behind: enough to
// re-ack, not enough to re-order (8 bytes vs the window's 512).
type tombstone struct {
	max  uint64
	tick uint64
}

// DefaultDedupWindow is the per-pusher window width in sequences.
const DefaultDedupWindow = 4096

// DefaultDedupMaxPushers bounds the pusher table.
const DefaultDedupMaxPushers = 4096

// NewDedup builds a dedup layer; zero arguments take the defaults.
func NewDedup(window uint64, maxPushers int) *Dedup {
	if window == 0 {
		window = DefaultDedupWindow
	}
	// Round up to a multiple of 64 so the bitmap ring has no partial
	// word to special-case.
	window = (window + 63) &^ 63
	if maxPushers <= 0 {
		maxPushers = DefaultDedupMaxPushers
	}
	return &Dedup{
		window:  window,
		maxP:    maxPushers,
		pushers: make(map[string]*pusherWindow),
		tombs:   make(map[string]tombstone),
	}
}

// Window reports the per-pusher window width.
func (d *Dedup) Window() uint64 { return d.window }

// DedupStats is the /healthz view of the dedup layer.
type DedupStats struct {
	Window         uint64 `json:"window"`
	Pushers        int    `json:"pushers"`
	MaxPushers     int    `json:"max_pushers"`
	Tombstones     int    `json:"tombstones"`
	Duplicates     uint64 `json:"duplicates_reacked"`
	Stale          uint64 `json:"stale_reacked"`
	EvictedPushers uint64 `json:"evicted_pushers"`
}

// Stats snapshots the counters.
func (d *Dedup) Stats() DedupStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DedupStats{
		Window:         d.window,
		Pushers:        len(d.pushers),
		MaxPushers:     d.maxP,
		Tombstones:     len(d.tombs),
		Duplicates:     d.dups,
		Stale:          d.stale,
		EvictedPushers: d.evicted,
	}
}

// entry returns (creating if needed) the pusher's window, pinned
// against eviction, with its LRU stamp updated and the table bound
// enforced. Every entry must be paired with a release.
func (d *Dedup) entry(id string) *pusherWindow {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick++
	w := d.pushers[id]
	if w == nil {
		if len(d.pushers) >= d.maxP {
			d.evictColdestLocked()
		}
		w = &pusherWindow{bits: make([]uint64, d.window/64)}
		if t, ok := d.tombs[id]; ok {
			// An evicted pusher came back. Resume at its tombstone's
			// high-water mark with the whole window marked seen: a replayed
			// old sequence re-acks (bit set → duplicate; below the window →
			// stale) instead of merging a second time, and anything genuinely
			// new is above max and processes normally.
			w.max = t.max
			for i := range w.bits {
				w.bits[i] = ^uint64(0)
			}
			delete(d.tombs, id)
		}
		d.pushers[id] = w
	}
	w.refs++
	w.last = d.tick
	return w
}

// release unpins a window returned by entry.
func (d *Dedup) release(w *pusherWindow) {
	d.mu.Lock()
	w.refs--
	d.mu.Unlock()
}

// evictColdestLocked drops the least-recently-active unpinned window,
// leaving its tombstone behind. Pinned windows have a batch somewhere
// in check→journal→merge→mark and are never victims (the table
// overshoots its bound by at most the ingest concurrency limit).
// Caller holds d.mu.
func (d *Dedup) evictColdestLocked() {
	var coldID string
	var coldW *pusherWindow
	for pid, pw := range d.pushers {
		if pw.refs > 0 {
			continue
		}
		if coldW == nil || pw.last < coldW.last {
			coldID, coldW = pid, pw
		}
	}
	if coldW == nil {
		return
	}
	delete(d.pushers, coldID)
	d.evicted++
	if len(d.tombs) >= d.maxP {
		// The tombstone table is bounded too: beyond it the oldest
		// eviction's memory expires entirely, which restores the documented
		// pre-tombstone bound (thousands of distinct pushers) rather than
		// growing without limit.
		var oldID string
		var old tombstone
		for tid, t := range d.tombs {
			if oldID == "" || t.tick < old.tick {
				oldID, old = tid, t
			}
		}
		delete(d.tombs, oldID)
	}
	d.tombs[coldID] = tombstone{max: coldW.max, tick: d.tick}
}

// Process runs apply under the pusher's dedup lock: if (id, seq) was
// already processed it reports dup=true without calling apply; else it
// calls apply and the key becomes seen only on success. Any apply error
// leaves the key unseen (the retry will be processed).
//
// apply receives a commit callback and MUST invoke it exactly once on
// its success path, from inside whatever exclusion barrier makes the
// batch durable (serveBatch calls it while still holding the read side
// of the apply barrier). commit is what marks the key seen; deferring the mark to
// after apply returned would let a snapshot cut the journal between the
// durable batch and its mark, and a crash would then re-merge the
// retry. An apply that errors must not call commit.
func (d *Dedup) Process(id string, seq uint64, apply func(commit func()) error) (dup bool, stale bool, err error) {
	w := d.entry(id)
	defer d.release(w)
	w.mu.Lock()
	defer w.mu.Unlock()

	switch {
	case seq > w.max:
		// fresh
	case w.max >= d.window && seq <= w.max-d.window:
		d.mu.Lock()
		d.stale++
		d.mu.Unlock()
		return true, true, nil
	case w.bits[(seq/64)%(d.window/64)]&(1<<(seq%64)) != 0:
		d.mu.Lock()
		d.dups++
		d.mu.Unlock()
		return true, false, nil
	}
	if err := apply(func() { d.mark(w, seq) }); err != nil {
		return false, false, err
	}
	return false, false, nil
}

// Mark records a key as seen without an apply — the journal-replay
// path, where the batch is already durable and merged. Caller
// guarantees no concurrent traffic (recovery runs before serving).
func (d *Dedup) Mark(id string, seq uint64) {
	w := d.entry(id)
	w.mu.Lock()
	d.mark(w, seq)
	w.mu.Unlock()
	d.release(w)
}

// mark sets seq's bit, clearing the bits of any skipped-over range so
// a sequence jump cannot leave ghost marks from a lap ago. Caller
// holds w.mu.
func (d *Dedup) mark(w *pusherWindow, seq uint64) {
	if seq > w.max {
		if seq-w.max >= d.window {
			for i := range w.bits {
				w.bits[i] = 0
			}
		} else {
			for s := w.max + 1; s < seq; s++ {
				w.bits[(s/64)%(d.window/64)] &^= 1 << (s % 64)
			}
		}
		w.max = seq
	}
	w.bits[(seq/64)%(d.window/64)] |= 1 << (seq % 64)
}

// MaxSeqs reports every pusher's acked high-water sequence — live
// windows and tombstones alike — the maxSeq half of the anti-entropy
// digest. Window pointers are collected under the table lock and each
// window's max read under its own lock (never the reverse order:
// Process takes the table lock while holding a window lock).
func (d *Dedup) MaxSeqs() map[string]uint64 {
	d.mu.Lock()
	out := make(map[string]uint64, len(d.pushers)+len(d.tombs))
	ws := make(map[string]*pusherWindow, len(d.pushers))
	for id, w := range d.pushers {
		ws[id] = w
	}
	for id, t := range d.tombs {
		out[id] = t.max
	}
	d.mu.Unlock()
	for id, w := range ws {
		w.mu.Lock()
		out[id] = w.max
		w.mu.Unlock()
	}
	return out
}

// WindowOf snapshots one pusher's window for a partition transfer:
// its max and bitmap, or a tombstone's max with nil bits (the receiver
// must treat nil as all-seen — the tombstone forgot the bit detail but
// remembers everything up to max was judged).
func (d *Dedup) WindowOf(id string) (max uint64, bits []uint64) {
	d.mu.Lock()
	w := d.pushers[id]
	if w == nil {
		t, ok := d.tombs[id]
		d.mu.Unlock()
		if !ok {
			return 0, nil
		}
		return t.max, nil
	}
	d.mu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.max, append([]uint64(nil), w.bits...)
}

// Adopt replaces one pusher's window with a transferred peer window —
// the dedup half of anti-entropy adoption, paired with the store's
// ReplacePartition so the data and the judgment that guards it move
// together. Adopt locks the pusher's window FIRST and only then runs
// barrier — the caller's apply-exclusion section (the write side of
// Server.applyMu) — handing it an install func that must be invoked
// exactly once, inside the barrier, alongside the partition swap. The
// order is load-bearing: serveBatch holds this same window lock across
// its whole apply (Process → fanout → applyMu.RLock), so adoption must also take w.mu before the apply
// barrier — taking the barrier first deadlocks permanently against an
// in-flight batch for the same pusher, with the apply write lock held
// and every other ingest wedged behind it.
//
// Install semantics: a transfer whose max is behind the local window
// (the local node learned more since the digest) keeps the local max
// and conservatively marks everything seen; nil or width-mismatched
// bits mark all seen likewise — re-acking an unseen batch loses at
// most that batch, merging a seen one corrupts the aggregate forever.
func (d *Dedup) Adopt(id string, max uint64, bits []uint64, barrier func(install func())) {
	w := d.entry(id)
	w.mu.Lock()
	barrier(func() {
		allSeen := func() {
			for i := range w.bits {
				w.bits[i] = ^uint64(0)
			}
		}
		switch {
		case max < w.max:
			allSeen()
		case uint64(len(bits))*64 == d.window:
			w.max = max
			copy(w.bits, bits)
		default:
			w.max = max
			allSeen()
		}
	})
	w.mu.Unlock()
	d.release(w)
}

// State serializes the dedup windows for the store snapshot's extra
// blob, one agg payload (internal/agg's codec):
//
//	window, dups, stale, evicted   uint
//	pushers                        map of pusher id to (max uint, bits
//	                               list of uint)
//	tombstones                     map of pusher id to max uint
//
// Per-pusher locks are not taken: every window WRITE happens inside
// the apply barrier (Process's commit callback runs under its read
// side), and State is only called with the apply write-lock held — so
// the windows are frozen for the duration, and concurrent pre-apply
// duplicate checks are read-only.
func (d *Dedup) State() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := agg.NewEncoder(nil)
	for _, x := range [...]uint64{d.window, d.dups, d.stale, d.evicted} {
		e.Uint(x)
	}
	agg.EncodeMap(e, d.pushers, func(w *pusherWindow) {
		e.Uint(w.max)
		e.Uint(uint64(len(w.bits)))
		for _, x := range w.bits {
			e.Uint(x)
		}
	})
	agg.EncodeMap(e, d.tombs, func(t tombstone) { e.Uint(t.max) })
	return e.Bytes()
}

// Load replaces the dedup state from a snapshot blob; a blob that does
// not decode leaves it unchanged. Windows and tombstones take LRU ticks
// in pusher id order. A window-width mismatch keeps each pusher's max
// but marks its whole window seen — the conservative direction: a late
// out-of-order batch below max is re-acked rather than risking a
// double-merge with marks whose ring positions no longer line up.
func (d *Dedup) Load(blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	dec := agg.NewDecoder(blob)
	window, dups, stale, evicted := dec.Uint(), dec.Uint(), dec.Uint(), dec.Uint()
	d.mu.Lock()
	defer d.mu.Unlock()
	words := d.window / 64
	tick := d.tick
	pushers := agg.DecodeMap(dec, 2, func() *pusherWindow {
		tick++
		w := &pusherWindow{max: dec.Uint(), last: tick}
		w.bits = make([]uint64, dec.Count(1))
		for i := range w.bits {
			w.bits[i] = dec.Uint()
		}
		if window != d.window {
			w.bits = make([]uint64, words)
			for i := range w.bits {
				w.bits[i] = ^uint64(0)
			}
		} else if uint64(len(w.bits)) != words {
			dec.Fail("dedup window of %d words, want %d", len(w.bits), words)
		}
		return w
	})
	tombs := agg.DecodeMap(dec, 1, func() tombstone {
		tick++
		return tombstone{max: dec.Uint(), tick: tick}
	})
	if err := dec.Close(); err != nil {
		return fmt.Errorf("daemon: decoding dedup state: %w", err)
	}
	d.dups, d.stale, d.evicted = dups, stale, evicted
	d.pushers, d.tombs, d.tick = pushers, tombs, tick
	return nil
}
