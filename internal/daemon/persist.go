package daemon

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/witch"
)

// persistence makes witchd crash-safe: every acknowledged ingest batch
// is journaled (timestamp envelope + raw body) before the 200 goes
// back, and the retention store is periodically checkpointed to a
// snapshot that anchors journal GC. Startup recovery = load the newest
// valid snapshot, replay the journal suffix past its anchor, truncate
// any torn tail.
//
// Consistency contract: applies hold the read side of the server's
// apply barrier (many in flight) from journal append through merge and
// dedup mark, snapshots take the write side — so a snapshot's journal
// anchor (LastLSN at that instant) covers exactly the batches whose
// store ingest has completed, and replay-from-anchor is exactly-once.
type persistence struct {
	dir       string
	journal   *wal.Journal
	st        *store.Store
	ded       *Dedup        // may be nil; rides the snapshot's extra blob
	barrier   *sync.RWMutex // the server's apply barrier (Server.applyMu)
	snapEvery uint64        // acknowledged batches between snapshots; 0 = shutdown only

	batches atomic.Uint64

	journalErrors atomic.Uint64
	snapshots     atomic.Uint64
	lastSnapLSN   atomic.Uint64
	snapErrors    atomic.Uint64

	recovery RecoveryReport
}

// RecoveryReport is what startup recovery found, served on /healthz so
// operators can see exactly what a crash cost (spoiler: only torn,
// never-acknowledged bytes).
type RecoveryReport struct {
	SnapshotLSN      uint64 `json:"snapshot_lsn"`
	SnapshotLoaded   bool   `json:"snapshot_loaded"`
	SnapshotsSkipped int    `json:"snapshots_skipped"`
	ReplayedBatches  int    `json:"replayed_batches"`
	ReplayedProfiles int    `json:"replayed_profiles"`
	SkippedRecords   int    `json:"skipped_records"`
	ReplayedKeys     int    `json:"replayed_keys"`
	TornTail         bool   `json:"torn_tail"`
	TruncatedBytes   int64  `json:"truncated_bytes"`
}

// Journal envelope. v1: [8-byte big-endian unix-nano][raw body]. v2
// adds the batch's idempotency key between timestamp and body, as
// internal/wire fields:
//
//	[8-byte ts][0x01][string id][uint seq][raw body]
//
// The 0x01 marker cannot be the first byte of any valid body — JSON
// starts with '{', '[' or whitespace and the binary codec with 'W'
// (its magic) — so v1 envelopes keep decoding unchanged, and a v2
// daemon restarted over a v1 journal replays it cleanly.
const envKeyMarker = "\x01"

// appendEnvelope encodes a journal envelope for body at time now.
func appendEnvelope(now time.Time, id string, seq uint64, keyed bool, body []byte) []byte {
	env := make([]byte, 8, 8+1+binary.MaxVarintLen64*2+len(id)+len(body))
	binary.BigEndian.PutUint64(env, uint64(now.UnixNano()))
	e := wire.NewEncoder(env)
	if keyed {
		e.Raw([]byte(envKeyMarker))
		e.Str(id)
		e.Uint(seq)
	}
	e.Raw(body)
	return e.Bytes()
}

// splitEnvelope decodes a journal envelope into its timestamp, optional
// idempotency key, and body. An envelope too mangled to split reports
// ok=false (the caller counts it skipped); one the decoder accepts
// re-encodes to its own bytes.
func splitEnvelope(payload []byte) (ts time.Time, id string, seq uint64, keyed bool, body []byte, ok bool) {
	if len(payload) < 8 {
		return ts, "", 0, false, nil, false
	}
	ts = time.Unix(0, int64(binary.BigEndian.Uint64(payload)))
	d := wire.NewDecoder(payload[8:])
	if !d.Magic(envKeyMarker) {
		return ts, "", 0, false, d.Rest(), true
	}
	id, seq = d.Str(), d.Uint()
	if body = d.Rest(); d.Err() != nil {
		return ts, "", 0, false, nil, false
	}
	return ts, id, seq, true, body, true
}

// snapName formats a snapshot filename anchored at a journal LSN.
func snapName(lsn uint64) string {
	return fmt.Sprintf("snap-%016x.snap", lsn)
}

// listSnapshots returns snapshot LSNs found in dir, newest first.
func listSnapshots(dir string) []uint64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var lsns []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
		if err != nil {
			continue
		}
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	return lsns
}

// openPersistence recovers state from dir into st and returns the
// manager, ready to journal new batches. Recovery is deliberately
// unfailable for data corruption: a corrupt snapshot falls back to the
// next older one, a torn journal tail is truncated, an undecodable
// journal record is skipped and counted — only environmental errors
// (unreadable dir) abort startup.
// If ded is non-nil, its windows are restored from the snapshot's
// extra blob and re-marked from replayed keyed envelopes, so dedup
// survives kill-restart exactly as far as the acknowledged data does.
func openPersistence(dir string, st *store.Store, ded *Dedup, barrier *sync.RWMutex, walOpts wal.Options, snapEvery uint64) (*persistence, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	p := &persistence{dir: dir, st: st, ded: ded, barrier: barrier, snapEvery: snapEvery}

	// Newest loadable snapshot wins; corrupt ones are skipped, not fatal.
	// Even a snapshot too corrupt to load still floors LSN assignment:
	// its filename proves the journal once reached that LSN, so new
	// appends must land strictly past it or replay would skip them.
	var anchor, floor uint64
	snaps := listSnapshots(dir)
	if len(snaps) > 0 {
		floor = snaps[0] // newest first
	}
	for _, lsn := range snaps {
		f, err := os.Open(filepath.Join(dir, snapName(lsn)))
		if err != nil {
			p.recovery.SnapshotsSkipped++
			continue
		}
		got, extra, err := st.Restore(f)
		f.Close()
		if err != nil {
			obs.Default().Warn("persist", "skipping corrupt snapshot",
				"snapshot", snapName(lsn), "err", err.Error())
			p.recovery.SnapshotsSkipped++
			continue
		}
		if ded != nil {
			if err := ded.Load(extra); err != nil {
				// Lost dedup state degrades to at-least-once for batches
				// older than the journal suffix — log, don't refuse to start.
				obs.Default().Warn("persist", "dedup state in snapshot unreadable",
					"snapshot", snapName(lsn), "err", err.Error())
			}
		}
		anchor = got
		p.recovery.SnapshotLoaded = true
		p.recovery.SnapshotLSN = got
		p.lastSnapLSN.Store(got)
		break
	}

	if anchor > floor {
		floor = anchor
	}
	walOpts.FloorLSN = floor
	j, err := wal.Open(dir, walOpts)
	if err != nil {
		return nil, err
	}
	p.journal = j
	ri := j.Recovery()
	p.recovery.TornTail = ri.TornTail
	p.recovery.TruncatedBytes = ri.TruncatedBytes

	// Replay the acknowledged suffix past the snapshot anchor, each
	// batch landing at its original wall time so the bucket layout (and
	// every windowed query) is reconstructed, not smeared. One decoder
	// serves the whole replay: the store copies what it keeps, so the
	// decoder's recycled profiles never outlive their record. Bodies are
	// sniffed, not typed — a batch journaled from a binary-encoding
	// pusher replays exactly like a JSON one.
	var dec witch.BatchDecoder
	err = wal.Replay(dir, anchor, func(r wal.Record) error {
		ts, id, seq, keyed, body, ok := splitEnvelope(r.Payload)
		if !ok {
			p.recovery.SkippedRecords++
			return nil
		}
		profs, err := dec.Decode(body)
		if err != nil {
			// Journaled bodies were validated before the append, so this
			// is bit rot inside a CRC-valid record — count and continue
			// rather than refuse to start.
			p.recovery.SkippedRecords++
			return nil
		}
		for _, prof := range profs {
			// Keyed batches replay into their pusher's partition, so the
			// partitioned layout replication depends on is rebuilt too.
			st.IngestKeyedAt(id, prof, ts)
		}
		if keyed && ded != nil {
			// The batch is durably merged; a post-restart retry of the
			// same key must be re-acked, not re-merged.
			ded.Mark(id, seq)
			p.recovery.ReplayedKeys++
		}
		p.recovery.ReplayedBatches++
		p.recovery.ReplayedProfiles += len(profs)
		return nil
	})
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	return p, nil
}

// append journals one batch's envelope (arrival time, optional
// idempotency key, raw validated body) — the durable half of
// serveBatch's journal-before-merge. The caller holds the apply
// barrier's read side and merges only on success; an error means the
// batch is NOT durable and must not be acknowledged. Journaling the key
// with the batch is what makes dedup crash-safe: replay re-marks
// exactly the keys whose data it re-merges. A nil persistence (a
// memory-only node) journals nothing.
func (p *persistence) append(now time.Time, id string, seq uint64, keyed bool, body []byte) error {
	if p == nil {
		return nil
	}
	if _, err := p.journal.Append(appendEnvelope(now, id, seq, keyed, body)); err != nil {
		p.journalErrors.Add(1)
		return err
	}
	return nil
}

// applied counts one durably applied batch and takes the periodic
// snapshot when one is due. The caller has released the apply barrier
// (the snapshot takes its write side). A nil persistence does nothing.
func (p *persistence) applied() {
	if p == nil {
		return
	}
	if n := p.batches.Add(1); p.snapEvery > 0 && n%p.snapEvery == 0 {
		if err := p.snapshot(); err != nil {
			p.snapErrors.Add(1)
			obs.Default().Warn("persist", "periodic snapshot failed (journal still covers everything)",
				"err", err.Error())
		}
	}
}

// snapshot checkpoints the store, anchors it at the journal position,
// and garbage-collects the journal prefix plus older snapshots. Applies
// are excluded for the duration, which is what makes the anchor exact.
func (p *persistence) snapshot() error {
	p.barrier.Lock()
	defer p.barrier.Unlock()

	lsn := p.journal.LastLSN()
	// With applies excluded, the dedup image is consistent with the
	// store image: both cover exactly the batches at or below lsn.
	var extra []byte
	if p.ded != nil {
		extra = p.ded.State()
	}
	tmp := filepath.Join(p.dir, "snap.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := p.st.Snapshot(f, lsn, extra); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename is the commit point: a crash before it leaves the old
	// snapshot + full journal; after it, the new snapshot anchors GC.
	if err := os.Rename(tmp, filepath.Join(p.dir, snapName(lsn))); err != nil {
		os.Remove(tmp)
		return err
	}
	// The commit point is only real once the directory entry is on disk.
	// Without this fsync, the GC removals below could survive a machine
	// crash while the rename does not — leaving neither the new snapshot
	// nor the journal prefix and old snapshot it replaced.
	if err := wal.SyncDir(p.dir); err != nil {
		return fmt.Errorf("syncing data dir after snapshot commit: %w", err)
	}
	p.snapshots.Add(1)
	p.lastSnapLSN.Store(lsn)

	// GC: journal records <= lsn and snapshots < lsn are now dead weight.
	if _, err := p.journal.RemoveThrough(lsn); err != nil {
		obs.Default().Warn("persist", "journal gc failed", "err", err.Error())
	}
	for _, old := range listSnapshots(p.dir) {
		if old < lsn {
			os.Remove(filepath.Join(p.dir, snapName(old)))
		}
	}
	return nil
}

// Checkpoint forces a snapshot now — after a repair round adopted
// partitions, so a crash does not forget what was just pulled (the
// pulled data never went through this node's journal).
func (p *persistence) Checkpoint() error {
	if err := p.snapshot(); err != nil {
		p.snapErrors.Add(1)
		return err
	}
	return nil
}

// Shutdown is the graceful-drain epilogue: flush the journal, take a
// final snapshot, close. After this a restart recovers instantly from
// the snapshot with an empty replay suffix.
func (p *persistence) Shutdown() error {
	var firstErr error
	if err := p.journal.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.snapshot(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.journal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Abandon drops the journal without syncing or snapshotting — the
// kill -9 path for crash harnesses. Recovery must reconstruct
// everything from whatever the page cache already made durable.
func (p *persistence) Abandon() {
	p.journal.Abandon()
}
