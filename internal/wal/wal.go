// Package wal is the write-ahead journal behind witchd's durability:
// every acknowledged ingest batch is appended — length-prefixed and
// CRC-framed — before the 200 goes back to the pusher, so a crash,
// OOM-kill, or deploy restart can lose only batches that were never
// acknowledged. The paper's hpcrun analogue writes measurement files
// once per run (§6.5); a continuous daemon instead needs an append-only
// log it can replay.
//
// On-disk layout: a data directory holds segment files named
// wal-%016x.log, where the hex field is the LSN of the segment's first
// record. Each segment starts with a fixed header (magic, version,
// first LSN) and then a sequence of frames:
//
//	[u32 payload length][u32 CRC-32C of payload][payload bytes]
//
// LSNs are assigned densely from 1, so snapshot metadata can name the
// exact boundary it covers and recovery replays only the suffix.
//
// Crash anatomy: a frame interrupted mid-write (torn record) fails its
// CRC or length check on the next Open, which truncates the file back
// to the last complete frame and reports what it cut — a torn tail is
// recovered from, never fatal. Append failures at runtime (short write,
// ENOSPC, fsync error) roll the partial frame back so the journal stays
// consistent and the caller refuses the ack; if even the rollback fails
// the journal declares itself Failed and every later append errors
// fast, which witchd turns into 503 shedding until restart.
//
// Fault injection rides the writer seam: Options.Injector maps
// fault.ShortWrite / SyncFail / TornRecord / ENOSPC onto the
// corresponding syscall-level failures, so the kill-restart chaos tests
// exercise exactly the error paths a real disk produces.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

const (
	magic         = "WITCHWAL"
	version       = 1
	headerSize    = len(magic) + 4 + 8 // magic + u32 version + u64 first LSN
	frameOverhead = 8                  // u32 length + u32 crc
)

// castagnoli is the CRC-32C table (the polynomial storage systems use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFailed reports a journal that hit an unrecoverable append error
// (e.g. a rollback of a partial frame itself failed, or a torn-record
// fault left the tail in an unknown state). The journal refuses all
// further appends; recovery happens at the next Open.
var ErrFailed = errors.New("wal: journal failed, restart required")

// Options configures a journal.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (default 8 MiB). Rotation bounds the disk a
	// snapshot-anchored GC pass can reclaim at once.
	SegmentBytes int64
	// NoSync skips fsync after each append. Faster, but an acknowledged
	// batch may be lost to a machine (not process) crash — witchd maps
	// its -fsync flag here.
	NoSync bool
	// Injector injects disk faults at the writer seam; nil injects
	// nothing.
	Injector *fault.Injector
	// FloorLSN is a lower bound on LSN assignment: newly appended
	// records get LSNs strictly greater than FloorLSN even if every
	// segment file is missing or torn. witchd passes its newest snapshot
	// anchor here, so a gutted journal directory can never re-issue LSNs
	// a snapshot already covers (replay would silently skip them — an
	// acknowledged-data loss).
	FloorLSN uint64
	// GroupCommit batches concurrent Appends: callers enqueue framed
	// records to a committer goroutine that lands a whole gang with one
	// write and one fsync, acking every waiter at once. Durability
	// semantics are unchanged — no Append returns success before its
	// record is synced per policy — only the fsyncs are amortized.
	// witchd maps -fsync group here.
	GroupCommit bool
	// MaxCommitDelay bounds how long the committer waits to grow a gang
	// after the first record of a batch arrives. Zero commits immediately
	// with whatever has queued by then (concurrency alone forms the
	// gangs); a small positive value trades that much ack latency for
	// bigger gangs. Ignored without GroupCommit.
	MaxCommitDelay time.Duration
	// Inflight, when non-nil, reports how many records the caller has
	// on their way to Append, counting those already queued. The
	// committer's linger ends as soon as its gang holds that many, so a
	// gang waits for every producer that is coming and for no one else;
	// without it the linger runs the whole MaxCommitDelay. witchd points
	// it at its count of decoded batches on their way to the journal.
	Inflight func() int
	// SyncDelay models a disk whose commit costs a fixed latency: every
	// successful fsync additionally holds the journal for this long.
	// Zero (production) adds nothing. Benchmarks use it to pin the
	// storage variable so a scaling experiment measures the layer under
	// test — e.g. the cluster's N-journal parallelism — rather than
	// whatever disk the host happens to have.
	SyncDelay time.Duration
	// ObserveCommit, when non-nil, receives the durability wait of each
	// successful Append: frame write + fsync per policy, including the
	// whole group-commit gang wait. A timing witness only — it runs
	// after the record is durable and must not block (witchd points it
	// at a wait-free latency histogram).
	ObserveCommit func(wait time.Duration)
}

// RecoveryInfo reports what Open found and repaired.
type RecoveryInfo struct {
	// LastLSN is the highest LSN of a complete, CRC-valid record (0 if
	// the journal is empty).
	LastLSN uint64
	// TruncatedBytes counts torn-tail bytes cut from the final segment;
	// TornTail is true when any were found.
	TruncatedBytes int64
	TornTail       bool
	// Segments is how many segment files survived recovery.
	Segments int
}

// Record is one replayed journal entry.
type Record struct {
	LSN     uint64
	Payload []byte
}

// segment describes one on-disk segment file.
type segment struct {
	path     string
	firstLSN uint64
	// lastLSN is the highest complete record in the segment, or
	// firstLSN-1 for a segment holding no complete records.
	lastLSN uint64
	size    int64
}

// Journal is a single-writer append log. Append is safe for concurrent
// use; Open/Close are not.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	seg     segment
	nextLSN uint64
	failed  bool
	appends uint64
	commits uint64
	// unsynced counts bytes appended since the last fsync — the backlog
	// watermark witchd sheds on when running with NoSync.
	unsynced int64

	recovery RecoveryInfo
	segments []segment // completed (rotated-out) segments, oldest first

	// Group-commit machinery, live only when opts.GroupCommit is set.
	// commitCh carries waiters to the committer goroutine; closeMu/closing
	// fence Append's channel send against Close's channel close; cbuf is
	// the gang concatenation buffer, touched only under mu.
	commitCh    chan *waiter
	closeMu     sync.RWMutex
	closing     bool
	committerWG sync.WaitGroup
	cbuf        []byte
}

// waiter carries one framed record from an Append caller to the group
// committer and the resulting LSN (or error) back. The done channel has
// capacity 1 so the committer never blocks on a slow waiter.
type waiter struct {
	frame []byte
	lsn   uint64
	err   error
	done  chan struct{}
}

// waiterPool recycles waiters (and their frame buffers) so a steady
// ingest load allocates nothing per append.
var waiterPool = sync.Pool{New: func() any { return &waiter{done: make(chan struct{}, 1)} }}

// Open scans dir, truncates any torn tail back to the last complete
// record, and returns a journal positioned to append after it. The dir
// is created if missing. Records already on disk are not read here —
// use Replay.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, opts: opts}
	// nextLSN must never regress below any LSN this directory may ever
	// have assigned, or fresh appends would land at-or-below an existing
	// snapshot anchor and be silently skipped by the next Replay. Every
	// segment filename is a floor — even for a file whose records all
	// tore, or that the post-tear sweep below removes — as is the
	// caller-declared FloorLSN.
	next := opts.FloorLSN + 1
	if next < 1 {
		next = 1
	}
	for i := range segs {
		if segs[i].firstLSN > next {
			next = segs[i].firstLSN
		}
	}
	var kept []segment
	for i := range segs {
		// Only the final segment may legitimately have a torn tail; an
		// earlier one implies a failed journal was restarted mid-history,
		// and everything after the tear was never acknowledged — scan
		// stops there and later segments are dropped.
		info, err := scanSegment(&segs[i])
		if err != nil {
			return nil, err
		}
		j.recovery.TruncatedBytes += info.truncated
		if info.torn {
			j.recovery.TornTail = true
			if err := truncateSegment(&segs[i], info.validSize); err != nil {
				return nil, err
			}
		}
		if segs[i].lastLSN+1 > next {
			next = segs[i].lastLSN + 1
		}
		// A segment holding at least one complete record (or an intact
		// header with a clean, record-free tail) survives; a torn one
		// with no complete records — including zero-byte and headerless
		// files from a crash mid-rotation — has been removed from disk
		// by truncateSegment.
		if segs[i].lastLSN >= segs[i].firstLSN || !info.torn {
			kept = append(kept, segs[i])
		}
		if info.torn && i < len(segs)-1 {
			for _, dead := range segs[i+1:] {
				if err := os.Remove(dead.path); err != nil {
					return nil, fmt.Errorf("wal: dropping post-tear segment: %w", err)
				}
			}
			break
		}
	}
	j.recovery.Segments = len(kept)
	j.nextLSN = next
	if n := len(kept); n > 0 {
		last := kept[n-1]
		j.recovery.LastLSN = last.lastLSN
		if next == last.lastLSN+1 {
			j.segments = kept[:n-1]
			f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("wal: reopening %s: %w", last.path, err)
			}
			j.f = f
			j.seg = last
			return j.start(), nil
		}
		// next ran past the last surviving record (a later segment
		// vanished whole, or a snapshot anchor outruns the files on
		// disk): appending into the last segment would bury an LSN gap
		// inside it, which replay's dense per-segment numbering cannot
		// represent — keep it read-only and start a fresh segment.
		j.segments = kept
	}
	if err := j.openSegment(); err != nil {
		return nil, err
	}
	return j.start(), nil
}

// start launches the group committer when configured; called once, at
// the end of a successful Open.
func (j *Journal) start() *Journal {
	if j.opts.GroupCommit {
		j.commitCh = make(chan *waiter, 256)
		j.committerWG.Add(1)
		go j.committer()
	}
	return j
}

// Recovery reports what Open found and repaired.
func (j *Journal) Recovery() RecoveryInfo { return j.recovery }

// LastLSN returns the LSN of the most recently appended (or recovered)
// record, 0 when empty.
func (j *Journal) LastLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextLSN - 1
}

// Commits reports physical write(+fsync) operations: one per append in
// per-append mode, one per gang under group commit — so appends divided
// by commits is the achieved mean gang size.
func (j *Journal) Commits() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.commits
}

// UnsyncedBytes reports bytes appended since the last fsync — zero when
// syncing every append.
func (j *Journal) UnsyncedBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.unsynced
}

// Failed reports whether the journal has declared itself unusable.
func (j *Journal) Failed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// openSegment starts a fresh segment whose first record will be nextLSN.
// Caller holds j.mu (or is Open, single-threaded).
func (j *Journal) openSegment() error {
	path := filepath.Join(j.dir, fmt.Sprintf("wal-%016x.log", j.nextLSN))
	// O_APPEND matters beyond idiom: after a failed append is rolled back
	// with Truncate, a plain descriptor's offset would still point past
	// the new EOF and the next write would leave a zero-filled hole —
	// which a scanner would misread as a run of empty frames (a zero
	// payload has CRC 0). Appending always lands at the true EOF.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], version)
	binary.LittleEndian.PutUint64(hdr[len(magic)+4:], j.nextLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if !j.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("wal: syncing segment header: %w", err)
		}
		// The file's contents being durable is not enough — its directory
		// entry must be too, or a machine crash can forget the segment
		// exists while later state (a snapshot rename, GC removals)
		// survives.
		if err := SyncDir(j.dir); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("wal: syncing dir after segment create: %w", err)
		}
	}
	j.f = f
	j.seg = segment{path: path, firstLSN: j.nextLSN, lastLSN: j.nextLSN - 1, size: int64(headerSize)}
	return nil
}

// Append writes one record, fsyncs per policy, and returns its LSN.
// On error nothing was durably appended — the partial frame has been
// rolled back — and the caller must not acknowledge the payload. An
// ErrFailed (possibly wrapped) means the journal is out of service
// until restart.
func (j *Journal) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		// An empty frame is indistinguishable from a zero-filled hole on
		// recovery, so it is not representable.
		return 0, errors.New("wal: empty payload")
	}
	var t0 time.Time
	if j.opts.ObserveCommit != nil {
		t0 = time.Now()
	}
	if j.opts.GroupCommit {
		lsn, err := j.appendGrouped(payload)
		if err == nil && j.opts.ObserveCommit != nil {
			j.opts.ObserveCommit(time.Since(t0))
		}
		return lsn, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed {
		return 0, ErrFailed
	}
	if j.seg.size >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	frame := appendFrame(make([]byte, 0, frameOverhead+len(payload)), payload)

	preSize := j.seg.size
	n, werr := j.seamWrite(frame)
	if werr == nil && !j.opts.NoSync {
		werr = j.seamSync()
	}
	if werr != nil {
		// Roll the partial frame back so the tail stays a complete
		// record; if that fails too the tail is unknowable — declare the
		// journal failed and let the next Open truncate the tear.
		if errors.Is(werr, errTorn) {
			j.fail()
			return 0, fmt.Errorf("wal: append tore mid-write: %w", ErrFailed)
		}
		if terr := j.f.Truncate(preSize); terr != nil {
			j.fail()
			return 0, fmt.Errorf("wal: append failed (%v) and rollback failed (%v): %w", werr, terr, ErrFailed)
		}
		return 0, fmt.Errorf("wal: append: %w", werr)
	}
	j.seg.size = preSize + int64(n)
	lsn := j.nextLSN
	j.nextLSN++
	j.seg.lastLSN = lsn
	j.appends++
	j.commits++
	if j.opts.NoSync {
		j.unsynced += int64(n)
	}
	if j.opts.ObserveCommit != nil {
		j.opts.ObserveCommit(time.Since(t0))
	}
	return lsn, nil
}

// appendFrame appends one framed record ([len][crc][payload]) to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// appendGrouped frames the payload in the caller's goroutine (CRC and
// copy are the parallelizable work), hands it to the committer, and
// blocks until the gang containing it commits or rolls back.
func (j *Journal) appendGrouped(payload []byte) (uint64, error) {
	w := waiterPool.Get().(*waiter)
	w.lsn, w.err = 0, nil
	w.frame = appendFrame(w.frame[:0], payload)
	// The read-lock fences the send against Close: Close flips closing
	// and closes commitCh under the write lock, so a send that got past
	// this check is guaranteed to land before the close.
	j.closeMu.RLock()
	if j.closing {
		j.closeMu.RUnlock()
		waiterPool.Put(w)
		return 0, ErrFailed
	}
	j.commitCh <- w
	j.closeMu.RUnlock()
	<-w.done
	lsn, err := w.lsn, w.err
	waiterPool.Put(w)
	return lsn, err
}

// committer is the group-commit loop: take the first waiter of a gang,
// optionally linger up to MaxCommitDelay to let the gang grow, sweep
// whatever else has queued, and commit the lot with one write+fsync.
//
// The linger deliberately does not park on a timer. Waking from a timer
// costs milliseconds on virtualized hosts regardless of the duration
// asked for, which would put a multi-ms floor under every ack and make
// sub-millisecond lingers (the useful range: a gang fills in
// concurrency × per-append CPU) silently 10x longer than configured.
// Instead the committer yields the processor between non-blocking
// sweeps, letting every runnable producer reach its Append, and stops
// once the gang holds every record Options.Inflight says is coming. A
// producer counted there but not yet queued here (in witchd, a decoded
// batch still on its replication leg or on its way to Append) is waited
// for; an idle journal (a count of one) still acks in microseconds.
func (j *Journal) committer() {
	defer j.committerWG.Done()
	var batch []*waiter
	for w := range j.commitCh {
		batch = append(batch[:0], w)
		if d := j.opts.MaxCommitDelay; d > 0 {
			deadline := time.Now().Add(d)
			for open := true; open && !j.gangFull(len(batch)) && time.Now().Before(deadline); {
				runtime.Gosched()
				batch, open = j.gather(batch)
			}
		}
		batch, _ = j.gather(batch)
		j.commitBatch(batch)
	}
}

// gangFull reports whether a gang of n holds every record in flight.
func (j *Journal) gangFull(n int) bool {
	return j.opts.Inflight != nil && n >= j.opts.Inflight()
}

// gather appends every waiter already queued to batch without blocking;
// open is false once Close has closed the queue.
func (j *Journal) gather(batch []*waiter) (_ []*waiter, open bool) {
	for {
		select {
		case w, ok := <-j.commitCh:
			if !ok {
				return batch, false
			}
			batch = append(batch, w)
		default:
			return batch, true
		}
	}
}

// commitBatch lands a gang of pre-framed records with a single write and
// a single fsync, then acks every waiter — or nacks every waiter.
// LSNs are positional within a segment (recovery re-derives them from
// frame order), so they are assigned only after the gang is durable: a
// rolled-back gang consumes no LSNs.
func (j *Journal) commitBatch(batch []*waiter) {
	j.mu.Lock()
	if j.failed {
		j.mu.Unlock()
		finish(batch, 0, ErrFailed)
		return
	}
	if j.seg.size >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			j.mu.Unlock()
			finish(batch, 0, err)
			return
		}
	}
	buf := j.cbuf[:0]
	for _, w := range batch {
		buf = append(buf, w.frame...)
	}
	j.cbuf = buf

	preSize := j.seg.size
	n, werr := j.seamWrite(buf)
	if werr == nil && !j.opts.NoSync {
		werr = j.seamSync()
	}
	if werr != nil {
		// A gang rollback must also remove any complete frames that
		// landed ahead of the failure point: none of them was
		// acknowledged, and leaving them durable would make recovery
		// replay batches whose pushers are about to retry them. This is
		// why — unlike the per-append path — truncation is attempted even
		// for a torn write.
		terr := j.f.Truncate(preSize)
		switch {
		case errors.Is(werr, errTorn):
			j.fail()
			j.mu.Unlock()
			finish(batch, 0, fmt.Errorf("wal: append tore mid-write: %w", ErrFailed))
		case terr != nil:
			j.fail()
			j.mu.Unlock()
			finish(batch, 0, fmt.Errorf("wal: append failed (%v) and rollback failed (%v): %w", werr, terr, ErrFailed))
		default:
			j.mu.Unlock()
			finish(batch, 0, fmt.Errorf("wal: append: %w", werr))
		}
		return
	}
	j.seg.size = preSize + int64(n)
	first := j.nextLSN
	j.nextLSN += uint64(len(batch))
	j.seg.lastLSN = j.nextLSN - 1
	j.appends += uint64(len(batch))
	j.commits++
	if j.opts.NoSync {
		j.unsynced += int64(n)
	}
	j.mu.Unlock()
	finish(batch, first, nil)
}

// finish acks (dense LSNs from first) or nacks (shared err) every
// waiter of a gang.
func finish(batch []*waiter, first uint64, err error) {
	for i, w := range batch {
		if err != nil {
			w.err = err
		} else {
			w.lsn = first + uint64(i)
		}
		w.done <- struct{}{}
	}
}

// errTorn marks a fault-injected crash-mid-write; see fault.TornRecord.
var errTorn = errors.New("wal: torn write")

// seamWrite is the fault-injectable write path. It returns the byte
// count actually landed in the file so rollback can account for it.
func (j *Journal) seamWrite(frame []byte) (int, error) {
	in := j.opts.Injector
	switch {
	case in.Should(fault.ENOSPC):
		return 0, fmt.Errorf("write %s: %w", j.seg.path, errNoSpace)
	case in.Should(fault.TornRecord):
		// Crash mid-write: half the frame lands, then the "process" dies
		// as far as this journal is concerned.
		n, _ := j.f.Write(frame[:len(frame)/2])
		return n, errTorn
	case in.Should(fault.ShortWrite):
		n, _ := j.f.Write(frame[:len(frame)/2])
		return n, fmt.Errorf("short write (%d of %d bytes): %w", n, len(frame), errNoSpace)
	}
	return j.f.Write(frame)
}

// errNoSpace is the injected analogue of ENOSPC.
var errNoSpace = errors.New("no space left on device")

// seamSync is the fault-injectable fsync path. Both commit flavours
// (per-append and group) sync through here, so the SyncDelay disk
// model is applied exactly once per physical sync, while the journal
// lock is held — a slower modeled disk serializes commits just like a
// slower real one.
func (j *Journal) seamSync() error {
	if j.opts.Injector.Should(fault.SyncFail) {
		return fmt.Errorf("fsync %s: input/output error", j.seg.path)
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	if j.opts.SyncDelay > 0 {
		time.Sleep(j.opts.SyncDelay)
	}
	return nil
}

// fail marks the journal out of service. Caller holds j.mu.
func (j *Journal) fail() {
	j.failed = true
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// rotateLocked closes the current segment and starts the next.
func (j *Journal) rotateLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing before rotation: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	j.unsynced = 0
	j.segments = append(j.segments, j.seg)
	return j.openSegment()
}

// Sync flushes the current segment to disk (a no-op error-wise when the
// journal already syncs every append).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed {
		return ErrFailed
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	j.unsynced = 0
	return nil
}

// Close syncs and closes the journal. With GroupCommit it first stops
// new enqueues, drains the committer (every already-enqueued Append is
// still committed and acked), and joins the goroutine.
func (j *Journal) Close() error {
	if j.opts.GroupCommit {
		j.closeMu.Lock()
		already := j.closing
		j.closing = true
		if !already {
			close(j.commitCh)
		}
		j.closeMu.Unlock()
		j.committerWG.Wait()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed || j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	j.failed = true // no appends after Close
	if serr != nil {
		return serr
	}
	return cerr
}

// SizeBytes reports the journal's total on-disk footprint: every
// rotated-out segment plus the active one. The pusher spool polls it to
// enforce its disk budget.
func (j *Journal) SizeBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	total := j.seg.size
	for _, s := range j.segments {
		total += s.size
	}
	return total
}

// Rotate forces the active segment closed and starts a fresh one, so
// its records become evictable by EvictOldest. A segment holding no
// records is not rotated (nothing would become evictable).
func (j *Journal) Rotate() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed {
		return ErrFailed
	}
	if j.seg.lastLSN < j.seg.firstLSN {
		return nil
	}
	return j.rotateLocked()
}

// EvictOldest removes the oldest rotated-out segment regardless of any
// snapshot anchor — the spool's bounded-disk eviction, where the caller
// (not a snapshot) decides the budget and must count the records in
// [first, last] as dropped. ok is false when only the active segment
// remains; rotate first to free it.
func (j *Journal) EvictOldest() (first, last uint64, ok bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.segments) == 0 {
		return 0, 0, false, nil
	}
	s := j.segments[0]
	if err := os.Remove(s.path); err != nil {
		return 0, 0, false, fmt.Errorf("wal: evict: %w", err)
	}
	j.segments = j.segments[1:]
	return s.firstLSN, s.lastLSN, true, nil
}

// Abandon closes the journal without syncing or draining — the
// kill -9 twin of Close, used by crash tests and Pusher.Abort to model
// a process death: whatever the page cache held is all a restart gets.
func (j *Journal) Abandon() {
	if j.opts.GroupCommit {
		j.closeMu.Lock()
		already := j.closing
		j.closing = true
		if !already {
			close(j.commitCh)
		}
		j.closeMu.Unlock()
		j.committerWG.Wait()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	j.failed = true
}

// RemoveThrough deletes segments every record of which has LSN <= lsn —
// the snapshot-anchored GC: once a snapshot covers lsn, the prefix it
// covers is dead weight. The active segment is never removed.
func (j *Journal) RemoveThrough(lsn uint64) (removed int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	keep := j.segments[:0]
	for _, s := range j.segments {
		if s.lastLSN <= lsn {
			if rerr := os.Remove(s.path); rerr != nil && err == nil {
				err = fmt.Errorf("wal: gc: %w", rerr)
				keep = append(keep, s)
				continue
			}
			removed++
			continue
		}
		keep = append(keep, s)
	}
	j.segments = keep
	return removed, err
}

// Replay streams every complete record with LSN > after, in order, to
// fn. It reads the segment files directly and may run on an open
// journal as long as no Append lands concurrently (witchd replays
// before serving). A replay error from fn aborts and is returned.
func Replay(dir string, after uint64, fn func(Record) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i := range segs {
		s := &segs[i]
		info, err := scanSegment(s)
		if err != nil {
			return err
		}
		if s.lastLSN < s.firstLSN || s.lastLSN <= after {
			if info.torn {
				return nil // nothing acknowledged lives past a tear
			}
			continue
		}
		if err := replaySegment(s, after, fn); err != nil {
			return err
		}
		if info.torn {
			return nil
		}
	}
	return nil
}

// replaySegment feeds fn the complete records of one scanned segment.
func replaySegment(s *segment, after uint64, fn func(Record) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()
	if _, err := io.CopyN(io.Discard, f, int64(headerSize)); err != nil {
		return fmt.Errorf("wal: replay header: %w", err)
	}
	var hdr [frameOverhead]byte
	for lsn := s.firstLSN; lsn <= s.lastLSN; lsn++ {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return fmt.Errorf("wal: replay frame at lsn %d: %w", lsn, err)
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return fmt.Errorf("wal: replay payload at lsn %d: %w", lsn, err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
			return fmt.Errorf("wal: replay crc mismatch at lsn %d", lsn)
		}
		if lsn <= after {
			continue
		}
		if err := fn(Record{LSN: lsn, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

// scanInfo is what scanSegment learns about a file.
type scanInfo struct {
	validSize int64 // offset of the first byte past the last complete record
	truncated int64 // bytes past validSize
	torn      bool
}

// scanSegment validates a segment file, filling in lastLSN and size and
// reporting any torn tail (which the caller decides to truncate).
func scanSegment(s *segment) (scanInfo, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return scanInfo{}, fmt.Errorf("wal: opening %s: %w", s.path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return scanInfo{}, err
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		// A segment too short for its own header — including a zero-byte
		// file from a crash between create and header write — is all
		// tear: no complete records, remove-on-recovery.
		s.lastLSN = s.firstLSN - 1
		return scanInfo{validSize: 0, truncated: st.Size(), torn: true}, nil
	}
	if string(hdr[:len(magic)]) != magic {
		return scanInfo{}, fmt.Errorf("wal: %s: bad magic", s.path)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != version {
		return scanInfo{}, fmt.Errorf("wal: %s: unsupported version %d", s.path, v)
	}
	if got := binary.LittleEndian.Uint64(hdr[len(magic)+4:]); got != s.firstLSN {
		return scanInfo{}, fmt.Errorf("wal: %s: header LSN %d does not match filename", s.path, got)
	}
	info := scanInfo{validSize: int64(headerSize)}
	s.lastLSN = s.firstLSN - 1
	var fh [frameOverhead]byte
	for {
		if _, err := io.ReadFull(f, fh[:]); err != nil {
			if errors.Is(err, io.EOF) {
				break // clean end
			}
			info.torn = true // partial frame header
			break
		}
		length := int64(binary.LittleEndian.Uint32(fh[:4]))
		want := binary.LittleEndian.Uint32(fh[4:])
		if length == 0 {
			// Append refuses empty payloads, so a zero length (with its
			// vacuously valid CRC of nothing) can only be filesystem damage
			// — typically a zero-filled hole. Treat it as a tear.
			info.torn = true
			break
		}
		if info.validSize+frameOverhead+length > st.Size() {
			info.torn = true // frame runs past EOF
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			info.torn = true
			break
		}
		if crc32.Checksum(payload, castagnoli) != want {
			info.torn = true // corrupt payload: treat it and all after as tear
			break
		}
		info.validSize += frameOverhead + length
		s.lastLSN++
	}
	info.truncated = st.Size() - info.validSize
	s.size = info.validSize
	return info, nil
}

// truncateSegment cuts a torn tail (or removes a segment with no
// complete records at all).
func truncateSegment(s *segment, validSize int64) error {
	if validSize <= int64(headerSize) && s.lastLSN < s.firstLSN {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: removing empty torn segment: %w", err)
		}
		return nil
	}
	if err := os.Truncate(s.path, validSize); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	return nil
}

// SyncDir fsyncs a directory so freshly created, renamed, or removed
// entries survive a machine crash. The WAL calls it after each segment
// create; witchd also calls it after the snapshot-rename commit point.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsync %s: %w", dir, err)
	}
	return nil
}

// listSegments finds and orders the segment files of a dir.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
		if err != nil || lsn == 0 {
			continue // foreign file (LSNs are dense from 1); leave it alone
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstLSN: lsn})
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].firstLSN < segs[k].firstLSN })
	return segs, nil
}
