package witch

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The spool is the durable half of the pusher's exactly-once story: a
// disk-backed overflow queue (one internal/wal journal per pusher) that
// holds profiles the daemon could not take — breaker open, queue full,
// retries exhausted — and survives process restarts. Entries are
// replayed oldest-first on reconnect; an acked entry's LSN advances a
// durable cursor so it is never replayed; and the whole spool is
// bounded, shedding oldest-first with every shed entry counted in
// DroppedByReason[DropSpoolEvict].
//
// On-disk layout (SpoolDir):
//
//	wal-%016x.log   CRC-framed segments (internal/wal format); each
//	                record is the sequence as an internal/wire uint,
//	                then the encoded profile bytes, the wire body
//	                verbatim (JSON or binary — replay re-derives
//	                Content-Type from the bytes).
//	spool.meta      JSON spoolMeta, replaced atomically (tmp+rename).
//
// The journal runs NoSync: spool durability targets process crashes
// (kill -9, OOM), where the page cache survives; a machine crash may
// lose spooled-but-unsynced entries, which is the same guarantee the
// in-memory queue never had. Close syncs; Abort (crash simulation)
// does not.
//
// Sequence reservation: the meta file persists SeqFloor, a ceiling on
// every sequence number this pusher ID may ever have used. Allocation
// reserves ahead in blocks (seqReserveBlock), so one meta write covers
// thousands of sends — and a restart resumes numbering above the floor,
// never reusing a sequence. Reuse would be silent data loss: the
// daemon's dedup window would re-ack the new batch as a duplicate of
// the old one.
type spool struct {
	dir      string
	maxBytes int64
	j        *wal.Journal
	meta     spoolMeta
	metaPath string
	// pendingN counts durable entries not yet acked or evicted.
	pendingN uint64
}

// spoolMeta is the durable per-pusher state beside the segments.
type spoolMeta struct {
	// PusherID names this spool's pusher across restarts — the stable
	// half of the (pusher ID, sequence) idempotency key.
	PusherID string `json:"pusher_id"`
	// AckLSN is the replay cursor: every entry with LSN <= AckLSN was
	// acknowledged by the daemon and must never be sent again.
	AckLSN uint64 `json:"ack_lsn"`
	// EvictLSN is the shed floor: entries with LSN <= EvictLSN were
	// evicted by the disk bound (and counted dropped) if not acked.
	EvictLSN uint64 `json:"evict_lsn"`
	// SeqFloor is the sequence reservation ceiling (see package comment).
	SeqFloor uint64 `json:"seq_floor"`
	// Evicted counts entries shed by the disk bound over the spool's
	// lifetime, across restarts.
	Evicted uint64 `json:"evicted"`
}

// spoolEntry is one replayed spool record.
type spoolEntry struct {
	lsn  uint64
	seq  uint64
	body []byte
}

// seqReserveBlock is how far ahead SeqFloor is reserved per meta write.
const seqReserveBlock = 4096

// openSpool loads or creates a spool directory. inj (optional) is a
// disk-fault injector threaded into the journal's write path.
func openSpool(dir string, segmentBytes, maxBytes int64, inj *fault.Injector) (*spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("witch: creating spool dir: %w", err)
	}
	s := &spool{dir: dir, maxBytes: maxBytes, metaPath: filepath.Join(dir, "spool.meta")}
	raw, err := os.ReadFile(s.metaPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &s.meta); err != nil {
			return nil, fmt.Errorf("witch: spool meta corrupt: %w", err)
		}
	case errors.Is(err, os.ErrNotExist):
		s.meta.PusherID = newPusherID()
		if err := s.writeMeta(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("witch: reading spool meta: %w", err)
	}
	j, err := wal.Open(dir, wal.Options{
		SegmentBytes: segmentBytes,
		NoSync:       true,
		Injector:     inj,
		// The floor keeps fresh appends above every acked or evicted LSN
		// even if all segment files are gone, so the cursors stay valid.
		FloorLSN: s.floorLSN(),
	})
	if err != nil {
		return nil, fmt.Errorf("witch: opening spool journal: %w", err)
	}
	s.j = j
	if last := j.LastLSN(); last > s.floorLSN() {
		s.pendingN = last - s.floorLSN()
	}
	return s, nil
}

// newPusherID draws a random 64-bit hex identity.
func newPusherID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not a real failure mode on supported
		// platforms; a fixed fallback only weakens dedup, not delivery.
		return "witch-pusher"
	}
	return hex.EncodeToString(b[:])
}

// randSeed draws a PRNG seed from the OS entropy pool (jitter must
// differ across pushers even when they start in the same nanosecond).
func randSeed() int64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0x5eed
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// reconcileEmpty aligns the cursors with an unexpectedly empty journal
// (a machine crash can eat unsynced appends the meta file promised):
// whatever the cursors counted as pending no longer exists, so the
// cursor advances to the journal tail and pending drops to zero.
func (s *spool) reconcileEmpty() {
	s.pendingN = 0
	if last := s.j.LastLSN(); last > s.meta.AckLSN {
		s.meta.AckLSN = last
		if err := s.writeMeta(); err == nil {
			s.j.RemoveThrough(s.floorLSN())
		}
	}
}

// floorLSN is the replay floor: entries at or below it are acked or
// evicted, and must not be replayed.
func (s *spool) floorLSN() uint64 {
	if s.meta.EvictLSN > s.meta.AckLSN {
		return s.meta.EvictLSN
	}
	return s.meta.AckLSN
}

// pending reports durable entries awaiting delivery.
func (s *spool) pending() uint64 { return s.pendingN }

// writeMeta replaces the meta file atomically.
func (s *spool) writeMeta() error {
	raw, err := json.Marshal(&s.meta)
	if err != nil {
		return fmt.Errorf("witch: encoding spool meta: %w", err)
	}
	tmp := s.metaPath + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("witch: writing spool meta: %w", err)
	}
	if err := os.Rename(tmp, s.metaPath); err != nil {
		return fmt.Errorf("witch: committing spool meta: %w", err)
	}
	return nil
}

// reserveSeq raises the durable sequence floor to at least n.
func (s *spool) reserveSeq(n uint64) error {
	if n <= s.meta.SeqFloor {
		return nil
	}
	s.meta.SeqFloor = n
	return s.writeMeta()
}

// append spools one encoded profile under its sequence number, shedding
// oldest entries first if the disk bound requires it. It returns how
// many pending entries were evicted to make room (each is a counted
// drop) alongside any append error. The budget is soft by at most one
// entry: when even an empty spool cannot fit the record, the record
// still lands — the alternative is dropping the newest data to keep
// the oldest, the inverse of every other bound in the pipeline.
func (s *spool) append(seq uint64, body []byte) (evicted uint64, err error) {
	payload := appendSpoolRecord(make([]byte, 0, binary.MaxVarintLen64+len(body)), seq, body)
	need := int64(len(payload)) + 12 // frame overhead: u32 len + u32 crc, rounded up
	metaDirty := false
	for s.maxBytes > 0 && s.j.SizeBytes()+need > s.maxBytes {
		first, last, ok, eerr := s.j.EvictOldest()
		if eerr != nil {
			return evicted, eerr
		}
		if !ok {
			// Only the active segment remains; rotate it out so its
			// records become evictable, then try once more.
			if rerr := s.j.Rotate(); rerr != nil {
				return evicted, rerr
			}
			first, last, ok, eerr = s.j.EvictOldest()
			if eerr != nil {
				return evicted, eerr
			}
			if !ok {
				break // nothing left to shed
			}
		}
		_ = first
		if f := s.floorLSN(); last > f {
			n := last - f
			evicted += n
			s.pendingN -= n
			s.meta.Evicted += n
		}
		if last > s.meta.EvictLSN {
			s.meta.EvictLSN = last
			metaDirty = true
		}
	}
	if metaDirty {
		if err := s.writeMeta(); err != nil {
			return evicted, err
		}
	}
	if _, err := s.j.Append(payload); err != nil {
		return evicted, err
	}
	s.pendingN++
	return evicted, nil
}

// appendSpoolRecord appends a spool record: seq as a uint, then body
// to the end.
func appendSpoolRecord(dst []byte, seq uint64, body []byte) []byte {
	e := wire.NewEncoder(dst)
	e.Uint(seq)
	e.Raw(body)
	return e.Bytes()
}

// splitSpoolRecord reads a record appendSpoolRecord wrote; ok is false
// when it has no sequence header.
func splitSpoolRecord(rec []byte) (seq uint64, body []byte, ok bool) {
	d := wire.NewDecoder(rec)
	seq = d.Uint()
	return seq, d.Rest(), d.Err() == nil
}

// errChunkFull stops a replay scan once a chunk is filled.
var errChunkFull = errors.New("witch: spool chunk full")

// readChunk returns up to max pending entries, oldest first. Entries
// stay in the spool until acked.
func (s *spool) readChunk(max int) ([]spoolEntry, error) {
	var out []spoolEntry
	err := wal.Replay(s.dir, s.floorLSN(), func(r wal.Record) error {
		seq, body, ok := splitSpoolRecord(r.Payload)
		if !ok {
			return fmt.Errorf("witch: spool entry at lsn %d has no sequence header", r.LSN)
		}
		out = append(out, spoolEntry{lsn: r.LSN, seq: seq, body: body})
		if len(out) >= max {
			return errChunkFull
		}
		return nil
	})
	if err != nil && !errors.Is(err, errChunkFull) {
		return nil, err
	}
	return out, nil
}

// ack advances the durable replay cursor past lsn and garbage-collects
// fully-acked segments. The cursor write happens before the next entry
// is touched, so a crash straight after an ack can re-send at most the
// in-flight entry — which the daemon's dedup window absorbs.
func (s *spool) ack(lsn uint64) error {
	if f := s.floorLSN(); lsn > f {
		s.pendingN -= lsn - f
	}
	if lsn > s.meta.AckLSN {
		s.meta.AckLSN = lsn
	}
	if err := s.writeMeta(); err != nil {
		return err
	}
	_, err := s.j.RemoveThrough(s.floorLSN())
	return err
}

// close syncs and closes the journal (graceful shutdown).
func (s *spool) close() error {
	return s.j.Close()
}

// abandon drops the journal without syncing — crash simulation.
func (s *spool) abandon() {
	s.j.Abandon()
}
