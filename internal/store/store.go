// Package store gives the witchd aggregation daemon bounded memory
// under indefinite ingest: profiles land in a ring of fixed time-width
// buckets, and when a ring slot is reused its expired bucket is folded
// into a long-tail rollup. Because merge is associative (a sum — see
// internal/agg), folding a bucket into the rollup is exactly the merge
// that would have happened had its profiles been ingested there
// directly: retention changes *where* data lives, never *what* a query
// over it reports.
//
// Each bucket (and the rollup) is partitioned by pusher identity: the
// aggregate a keyed batch lands in is addressable by its pusher ID, so
// the replication layer can export, checksum, and replace exactly one
// pusher's slice of history without touching its neighbours. The empty
// key holds unkeyed (anonymous) ingest.
//
// Reads go through Export: it selects the live buckets overlapping a
// trailing window (plus the rollup for unbounded reads) and merges each
// partition across them on its own, so a read never blocks ingest for
// longer than the per-shard locks it shares. witchd folds those
// partitions in one fixed order (unkeyed first, then pushers in id
// order) on a single node and across a fleet alike, so a read's bytes
// depend on what the partitions hold, never on map iteration order.
package store

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/witch"
)

// Config sizes the retention ring.
type Config struct {
	// Window is one bucket's time width (default 1 minute).
	Window time.Duration
	// Buckets is the live ring size; data older than Window×Buckets is
	// folded into the rollup (default 60).
	Buckets int
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
	// NoCache disables the epoch-versioned export memo, so every read
	// re-merges every partition from scratch — the pre-fast-path
	// behavior. Benchmarks use it as the oracle and baseline; epochs are
	// still tracked so versioned exports keep working.
	NoCache bool
}

// bucket is one retention window's aggregate, partitioned by pusher.
type bucket struct {
	start time.Time
	// rw lets eviction wait out in-flight merges: ingest holds the read
	// side while merging, the evictor takes the write side before
	// folding the bucket into the rollup, so no late merge is lost.
	rw sync.RWMutex
	// mu guards the partition map itself; the aggregators inside are
	// internally locked, so concurrent merges into one partition are
	// safe once the pointer is out.
	mu    sync.Mutex
	parts map[string]*agg.Aggregator
}

func newBucket(start time.Time) *bucket {
	return &bucket{start: start, parts: make(map[string]*agg.Aggregator, 2)}
}

// part returns the partition for id, creating it sized by hint.
func (b *bucket) part(id string, hint int) *agg.Aggregator {
	b.mu.Lock()
	defer b.mu.Unlock()
	a := b.parts[id]
	if a == nil {
		a = agg.NewSized(hint)
		b.parts[id] = a
	}
	return a
}

// snapshotParts copies the partition pointer set under the map lock.
func (b *bucket) snapshotParts() map[string]*agg.Aggregator {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]*agg.Aggregator, len(b.parts))
	for id, a := range b.parts {
		out[id] = a
	}
	return out
}

func (b *bucket) pairCount() int {
	n := 0
	for _, a := range b.snapshotParts() {
		n += a.PairCount()
	}
	return n
}

// Store is the time-bucketed retention layer. Safe for concurrent use.
type Store struct {
	cfg Config

	mu   sync.Mutex
	ring []*bucket
	// pending holds buckets that have been displaced from the ring but
	// whose fold into the rollup has not completed — the window during
	// which a concurrent Snapshot must still see them, or their data
	// would exist nowhere.
	pending []*bucket

	// rollup holds evicted history, partitioned like the buckets. The
	// map (and its aggregators' membership) is touched only under
	// foldMu.
	rollup map[string]*agg.Aggregator

	// foldMu serializes rollup mutation (fold) against Snapshot, so a
	// bucket is always captured on exactly one side of the rollup
	// boundary. Lock order: foldMu before mu; never mu before foldMu.
	foldMu sync.Mutex

	ingested       atomic.Uint64
	evictedBuckets atomic.Uint64

	// bucketHint remembers the last expired bucket's pair cardinality,
	// so fresh buckets pre-size their shard maps instead of growing them
	// incrementally under the merge locks. The hint is advisory: a bad
	// one costs memory or growth, never correctness.
	bucketHint atomic.Int64

	// gen and epoch version the state for the query fast path (see
	// cache.go): gen identifies this store instance's lifetime (fresh
	// per New, regenerated by Restore), epoch counts mutations within
	// it. partEpochs records the store epoch at each partition's last
	// mutation ("" = the anonymous partition); epochMu keeps (epoch,
	// vector) reads consistent.
	gen        atomic.Uint64
	epoch      atomic.Uint64
	epochMu    sync.Mutex
	partEpochs map[string]uint64

	// tools is the maintained tool set — what /healthz lists without
	// folding all-time state. toolsSorted caches the sorted view.
	toolsMu     sync.Mutex
	tools       map[string]bool
	toolsSorted []string

	// The export memo, validated by epoch-compare (never TTL) under
	// cacheMu. Cached exports are shared across callers: they are
	// read-only by contract.
	cacheMu     sync.Mutex
	exportCache map[time.Duration]*exportEntry

	exportHits         atomic.Uint64
	exportMisses       atomic.Uint64
	exportPartsReused  atomic.Uint64
	exportPartsRebuilt atomic.Uint64
}

// New builds a store, applying defaults for zero config fields.
func New(cfg Config) *Store {
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 60
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Store{
		cfg:         cfg,
		ring:        make([]*bucket, cfg.Buckets),
		rollup:      make(map[string]*agg.Aggregator),
		partEpochs:  make(map[string]uint64),
		tools:       make(map[string]bool),
		exportCache: make(map[time.Duration]*exportEntry),
	}
	s.gen.Store(nextGen())
	return s
}

// Ingest merges one profile into the current time bucket, evicting any
// expired bucket whose ring slot it reuses.
func (s *Store) Ingest(p *witch.Profile) {
	s.IngestAt(p, s.cfg.Now())
}

// IngestAt is unkeyed IngestKeyedAt — the profile lands in the
// anonymous partition shared by all unidentified senders.
func (s *Store) IngestAt(p *witch.Profile, now time.Time) {
	s.IngestKeyedAt("", p, now)
}

// IngestKeyedAt merges one profile into pusher id's partition of the
// bucket covering now, evicting any expired bucket whose ring slot it
// reuses. The explicit arrival time is the journal-replay contract:
// recovery re-ingests each batch at its original wall time, so the
// restored bucket layout (and every windowed query) comes back
// identical, not smeared into the restart instant.
func (s *Store) IngestKeyedAt(id string, p *witch.Profile, now time.Time) {
	start := now.Truncate(s.cfg.Window)
	slot := s.slotFor(start)

	s.mu.Lock()
	b := s.ring[slot]
	var expired *bucket
	if b == nil || !b.start.Equal(start) {
		expired = b
		b = newBucket(start)
		s.ring[slot] = b
		if expired != nil {
			s.pending = append(s.pending, expired)
		}
	}
	// Take the read side before releasing the ring lock so eviction of
	// *this* bucket (a full ring wrap later) cannot fold it while this
	// merge is still landing.
	b.rw.RLock()
	s.mu.Unlock()

	if expired != nil {
		// The expired bucket's cardinality is the best predictor for the
		// next bucket of the same traffic.
		s.bucketHint.Store(int64(expired.pairCount()))
		s.fold(expired)
	}
	b.part(id, int(s.bucketHint.Load())).Merge(p)
	b.rw.RUnlock()
	s.ingested.Add(1)
	// Bump AFTER the merge is visible: a concurrent cache fill that
	// already read the pre-bump epoch may include this profile, but its
	// entry is labeled old and the next read rebuilds.
	s.noteMutation(id)
	s.noteTool(p.Tool)
}

// slotFor maps a bucket start time onto its ring slot.
func (s *Store) slotFor(start time.Time) int {
	slot := int((start.UnixNano() / int64(s.cfg.Window)) % int64(s.cfg.Buckets))
	if slot < 0 {
		slot += s.cfg.Buckets
	}
	return slot
}

// rollupPart returns the rollup partition for id, creating it. Callers
// must hold foldMu.
func (s *Store) rollupPart(id string) *agg.Aggregator {
	a := s.rollup[id]
	if a == nil {
		a = agg.New()
		s.rollup[id] = a
	}
	return a
}

// fold waits out in-flight merges on an expired bucket and rolls it up
// partition by partition. The rollup merge and the bucket's removal
// from the pending list are one atomic step under foldMu, so a
// concurrent Snapshot sees the bucket on exactly one side of the
// rollup — never both, never neither.
func (s *Store) fold(b *bucket) {
	b.rw.Lock()
	s.foldMu.Lock()
	folded := make([]string, 0, len(b.parts))
	for id, a := range b.parts {
		s.rollupPart(id).MergeFrom(a)
		folded = append(folded, id)
	}
	s.mu.Lock()
	for i, p := range s.pending {
		if p == b {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.foldMu.Unlock()
	b.rw.Unlock()
	s.evictedBuckets.Add(1)
	// Conservative epoch bumps: all-time results are unchanged by a
	// fold (merge is associative), but the folded bucket's exit from
	// windowed views and the rollup growth both invalidate derived
	// caches cheaply here rather than subtly there.
	for _, id := range folded {
		s.noteMutation(id)
	}
}

// liveBuckets collects the ring and pending buckets overlapping the
// trailing window (all of them when window <= 0). Callers own locking.
func (s *Store) liveBuckets(window time.Duration, now time.Time) []*bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make([]*bucket, 0, len(s.ring)+len(s.pending))
	for _, b := range append(append([]*bucket(nil), s.ring...), s.pending...) {
		if b == nil {
			continue
		}
		if window > 0 && !b.start.Add(s.cfg.Window).After(now.Add(-window)) {
			continue
		}
		live = append(live, b)
	}
	return live
}

// Export is the per-partition view of a trailing window, the unit the
// cluster scatter plane ships between nodes: every partition, each
// already merged across buckets, keyed by pusher ID ("" is the
// anonymous partition).
type Export struct {
	Parts map[string]*agg.State
}

// Export builds the per-partition window view. window <= 0 includes
// the rollup under the fold barrier, so a bucket mid-eviction is
// counted exactly once, from whichever side of the rollup it is on.
// Every local and fleet read folds it (see internal/daemon's
// foldOrder). Memoized via ExportVersioned; the result is shared and
// read-only by contract.
func (s *Store) Export(window time.Duration) *Export {
	return s.ExportVersioned(window).Export
}

// exportAt is the build behind ExportVersioned. vec is the partition
// epoch vector read before the build; prev is the window's previous
// export at the same generation and clock quantum, or nil. A
// partition whose epoch in vec still equals its epoch in prev's vector
// has not been mutated since prev read that vector, so prev's State is
// reused; every other partition is merged across buckets afresh. With
// a nil prev (Config.NoCache, first read, new quantum) every partition
// is rebuilt.
func (s *Store) exportAt(window time.Duration, now time.Time, vec map[string]uint64, prev *VersionedExport) *Export {
	if window <= 0 {
		s.foldMu.Lock()
		defer s.foldMu.Unlock()
	}
	live := s.liveBuckets(window, now)

	// Each partition's sources in merge order: rollup, then live buckets.
	srcs := make(map[string][]*agg.Aggregator)
	if window <= 0 {
		for id, a := range s.rollup {
			srcs[id] = append(srcs[id], a)
		}
	}
	for _, b := range live {
		b.mu.Lock()
		for id, a := range b.parts {
			srcs[id] = append(srcs[id], a)
		}
		b.mu.Unlock()
	}

	out := &Export{Parts: make(map[string]*agg.State, len(srcs))}
	var reused, rebuilt uint64
	for id, as := range srcs {
		st := prev.unchanged(id, vec)
		if st != nil {
			reused++
		} else {
			acc := agg.New()
			for _, a := range as {
				acc.MergeFrom(a)
			}
			st = acc.State()
			rebuilt++
		}
		out.Parts[id] = st
	}
	s.exportPartsReused.Add(reused)
	s.exportPartsRebuilt.Add(rebuilt)
	return out
}

// PartitionBucket is one bucket's slice of a partition image.
type PartitionBucket struct {
	StartUnixNano int64
	State         *agg.State
}

// PartitionImage is the transferable whole of one pusher's history —
// bucket-structured so the receiver can rebuild the same windowed
// layout, rollup included. It is what anti-entropy repair ships.
type PartitionImage struct {
	WindowNanos int64
	Buckets     []PartitionBucket
	Rollup      *agg.State
}

// PartitionImage captures pusher id's full state. Callers needing an
// exact cut must quiesce ingest for that pusher around the call (witchd
// holds its persistence apply barrier).
func (s *Store) PartitionImage(id string) *PartitionImage {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	img := &PartitionImage{WindowNanos: int64(s.cfg.Window)}
	if a := s.rollup[id]; a != nil {
		img.Rollup = a.State()
	}
	for _, b := range s.liveBuckets(0, time.Time{}) {
		b.mu.Lock()
		a := b.parts[id]
		b.mu.Unlock()
		if a != nil {
			img.Buckets = append(img.Buckets, PartitionBucket{
				StartUnixNano: b.start.UnixNano(),
				State:         a.State(),
			})
		}
	}
	return img
}

// ReplacePartition discards pusher id's local history everywhere and
// installs the image in its place — the adoption step of anti-entropy
// repair. Image buckets that no longer fit the ring geometry are folded
// into the rollup partition, mirroring Restore. Callers needing an
// exact cut (no concurrent ingest for id) must quiesce around the call.
func (s *Store) ReplacePartition(id string, img *PartitionImage) {
	s.foldMu.Lock()
	defer func() {
		// Replacement can remove data (img == nil, or a smaller image), so
		// the additive tool set must be recomputed, not appended to. Bump
		// the epoch after everything is installed and while the fold
		// barrier still excludes concurrent folds of the new data.
		s.rebuildToolsLocked()
		s.foldMu.Unlock()
		s.noteMutation(id)
	}()

	// Only the partition-map locks are taken here (never b.rw, whose
	// order relative to foldMu belongs to fold): with ingest quiesced
	// per the contract, no merge can be holding a discarded partition.
	for _, b := range s.liveBuckets(0, time.Time{}) {
		b.mu.Lock()
		delete(b.parts, id)
		b.mu.Unlock()
	}
	delete(s.rollup, id)
	if img == nil {
		return
	}

	if img.Rollup != nil {
		s.rollupPart(id).MergeState(img.Rollup)
	}
	for _, pb := range img.Buckets {
		start := time.Unix(0, pb.StartUnixNano)
		slot := s.slotFor(start)
		s.mu.Lock()
		b := s.ring[slot]
		fits := img.WindowNanos == int64(s.cfg.Window) && (b == nil || b.start.Equal(start))
		if fits && b == nil {
			b = newBucket(start)
			s.ring[slot] = b
		}
		s.mu.Unlock()
		if !fits {
			// Doesn't fit the current ring geometry: keep the data, lose
			// only its windowing.
			s.rollupPart(id).MergeState(pb.State)
			continue
		}
		b.part(id, 0).MergeState(pb.State)
	}
}

// snapshotVersion guards the snapshot codec; bump on incompatible
// layout changes so recovery skips (not crashes on) foreign files.
// Partition maps were added as new gob fields without a bump: old
// snapshots load with everything in the anonymous partition, new
// snapshots load in old builds with keyed data ignored — acceptable
// only because deployments snapshot locally and never downgrade.
const snapshotVersion = 1

// snapshotFile is the gob image of a store.
type snapshotFile struct {
	Version     int
	Anchor      uint64
	WindowNanos int64
	Ingested    uint64
	Evicted     uint64
	Buckets     []bucketImage
	// Rollup holds the anonymous rollup partition; RollupParts the
	// keyed ones (absent in pre-partition snapshots — gob leaves nil).
	Rollup      *agg.State
	RollupParts map[string]*agg.State
	// Extra is an opaque caller blob carried beside the retention state
	// — witchd stores its idempotency-dedup windows here, so duplicate
	// suppression survives the same snapshot/replay cycle the data
	// does. Absent in pre-extra snapshots (gob leaves it nil).
	Extra []byte
}

// bucketImage is one retention bucket's encoded state: the anonymous
// partition in State, keyed partitions in Parts.
type bucketImage struct {
	StartUnixNano int64
	State         *agg.State
	Parts         map[string]*agg.State
}

// Snapshot trailer: an 8-byte suffix [CRC-32C of everything before it]
// [magic], so a truncated or bit-flipped snapshot is detected at load
// time instead of decoding into silently wrong aggregates (gob detects
// truncation but not payload corruption). The magic discriminates
// trailer-less legacy snapshots, which are accepted unverified.
const snapTrailerMagic = 0x57534e31 // "WSN1"

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// crcWriter tees writes through a running CRC-32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, snapCRCTable, p[:n])
	return n, err
}

// Snapshot encodes the full retention state — ring, pending folds, and
// rollup, partition structure included — to w, followed by the CRC-32C
// trailer. anchor is an opaque caller cursor (witchd stores the journal
// LSN the snapshot covers) and extra an opaque caller blob (witchd:
// dedup windows); both are returned verbatim by Restore.
//
// The fold barrier is held for the duration, so eviction cannot move a
// bucket across the rollup boundary mid-encode: every bucket lands on
// exactly one side (TestSnapshotRacesEviction). Concurrent ingest into
// live buckets remains possible — callers needing an exact cut (witchd
// does, for replay consistency) must quiesce ingest around the call.
func (s *Store) Snapshot(w io.Writer, anchor uint64, extra []byte) error {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()

	buckets := s.liveBuckets(0, time.Time{})

	img := snapshotFile{
		Version:     snapshotVersion,
		Anchor:      anchor,
		WindowNanos: int64(s.cfg.Window),
		Ingested:    s.ingested.Load(),
		Evicted:     s.evictedBuckets.Load(),
		Extra:       extra,
	}
	for id, a := range s.rollup {
		if id == "" {
			img.Rollup = a.State()
			continue
		}
		if img.RollupParts == nil {
			img.RollupParts = make(map[string]*agg.State)
		}
		img.RollupParts[id] = a.State()
	}
	for _, b := range buckets {
		bi := bucketImage{StartUnixNano: b.start.UnixNano()}
		for id, a := range b.snapshotParts() {
			if id == "" {
				bi.State = a.State()
				continue
			}
			if bi.Parts == nil {
				bi.Parts = make(map[string]*agg.State)
			}
			bi.Parts[id] = a.State()
		}
		img.Buckets = append(img.Buckets, bi)
	}

	cw := &crcWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(&img); err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	var trailer [8]byte
	binary.BigEndian.PutUint32(trailer[0:4], cw.crc)
	binary.BigEndian.PutUint32(trailer[4:8], snapTrailerMagic)
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("store: writing snapshot trailer: %w", err)
	}
	return nil
}

// Restore replaces the store's state with a snapshot, returning the
// caller anchor and extra blob it was written with. Meant for a freshly
// built store during recovery, before serving. The CRC-32C trailer is
// verified when present (legacy trailer-less snapshots are accepted);
// a mismatch returns an error so recovery can fall back to the
// next-newest snapshot instead of loading corrupt aggregates. Buckets
// that no longer fit the ring — a changed window width, or two buckets
// hashing to one slot after a long outage — are folded into the rollup
// rather than dropped, so all-time queries stay exact under any
// reconfiguration.
func (s *Store) Restore(r io.Reader) (anchor uint64, extra []byte, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	if n := len(data); n >= 8 && binary.BigEndian.Uint32(data[n-4:]) == snapTrailerMagic {
		want := binary.BigEndian.Uint32(data[n-8 : n-4])
		body := data[:n-8]
		if got := crc32.Checksum(body, snapCRCTable); got != want {
			return 0, nil, fmt.Errorf("store: snapshot checksum mismatch: crc32c %08x, trailer says %08x", got, want)
		}
		data = body
	}
	var img snapshotFile
	if err := gob.NewDecoder(byteReader(data)).Decode(&img); err != nil {
		return 0, nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if img.Version != snapshotVersion {
		return 0, nil, fmt.Errorf("store: snapshot version %d unsupported (this build reads %d)", img.Version, snapshotVersion)
	}

	ring := make([]*bucket, s.cfg.Buckets)
	rollup := make(map[string]*agg.Aggregator)
	rollupFor := func(id string) *agg.Aggregator {
		a := rollup[id]
		if a == nil {
			a = agg.New()
			rollup[id] = a
		}
		return a
	}
	if img.Rollup != nil {
		rollup[""] = agg.FromState(img.Rollup)
	}
	for id, st := range img.RollupParts {
		rollupFor(id).MergeState(st)
	}
	evicted := img.Evicted
	for _, bi := range img.Buckets {
		start := time.Unix(0, bi.StartUnixNano)
		parts := make(map[string]*agg.Aggregator, len(bi.Parts)+1)
		if bi.State != nil {
			parts[""] = agg.FromState(bi.State)
		}
		for id, st := range bi.Parts {
			parts[id] = agg.FromState(st)
		}
		slot := s.slotFor(start)
		if int64(s.cfg.Window) != img.WindowNanos || ring[slot] != nil {
			// Doesn't fit the current ring geometry: keep the data, lose
			// only its windowing.
			for id, a := range parts {
				rollupFor(id).MergeFrom(a)
			}
			evicted++
			continue
		}
		ring[slot] = &bucket{start: start, parts: parts}
	}

	s.foldMu.Lock()
	s.mu.Lock()
	s.ring = ring
	s.pending = nil
	s.mu.Unlock()
	s.rollup = rollup
	s.foldMu.Unlock()
	s.ingested.Store(img.Ingested)
	s.evictedBuckets.Store(evicted)

	// The world changed wholesale: start a fresh generation (so a
	// coordinator's delta baseline from the old life can never falsely
	// match the new epoch numbering), restamp every restored partition,
	// and drop all memoized results. Restore's contract is a fresh store
	// before serving, so no reader races this reset.
	restoredIDs := make(map[string]bool)
	for id := range rollup {
		restoredIDs[id] = true
	}
	for _, b := range ring {
		if b == nil {
			continue
		}
		for id := range b.parts {
			restoredIDs[id] = true
		}
	}
	s.epochMu.Lock()
	s.gen.Store(nextGen())
	s.epoch.Store(0)
	s.partEpochs = make(map[string]uint64, len(restoredIDs))
	s.epochMu.Unlock()
	for id := range restoredIDs {
		s.noteMutation(id)
	}
	s.invalidateCaches()
	s.rebuildTools()
	return img.Anchor, img.Extra, nil
}

// byteReader avoids re-buffering an already in-memory snapshot.
type byteSlice struct {
	b []byte
	i int
}

func byteReader(b []byte) io.Reader { return &byteSlice{b: b} }

func (r *byteSlice) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

// Stats reports the retention state: live buckets, buckets folded into
// the rollup, profiles ingested, and distinct pair streams held live
// (the figure eviction keeps bounded) plus in the rollup, and the
// number of addressable pusher partitions.
type Stats struct {
	Window         time.Duration `json:"window_ns"`
	LiveBuckets    int           `json:"live_buckets"`
	RingSize       int           `json:"ring_size"`
	EvictedBuckets uint64        `json:"evicted_buckets"`
	Ingested       uint64        `json:"ingested_profiles"`
	LivePairs      int           `json:"live_pairs"`
	RollupPairs    int           `json:"rollup_pairs"`
	Partitions     int           `json:"partitions"`
}

// Stats snapshots the retention counters, walking every partition for
// its pair count. Only /metrics, /healthz and the harness call it.
func (s *Store) Stats() Stats {
	st := Stats{
		Window:         s.cfg.Window,
		RingSize:       s.cfg.Buckets,
		EvictedBuckets: s.evictedBuckets.Load(),
		Ingested:       s.ingested.Load(),
	}
	s.foldMu.Lock()
	live := s.liveBuckets(0, time.Time{})
	seen := make(map[string]bool)
	for id, a := range s.rollup {
		st.RollupPairs += a.PairCount()
		if id != "" {
			seen[id] = true
		}
	}
	st.LiveBuckets = len(live)
	for _, b := range live {
		for id, a := range b.snapshotParts() {
			st.LivePairs += a.PairCount()
			if id != "" {
				seen[id] = true
			}
		}
	}
	s.foldMu.Unlock()
	st.Partitions = len(seen)
	return st
}

// Health combines the degradation records of everything held — live
// buckets and rollup — and reports how many profiles contributed. It
// folds the all-time export's metas; agg.MergeHealth and the profile
// count are integer and flag arithmetic, so partition order is moot.
func (s *Store) Health() (witch.Health, uint64) {
	var h witch.Health
	var n uint64
	for _, st := range s.Export(0).Parts {
		for i := range st.Metas {
			h = agg.MergeHealth(h, st.Metas[i].Health)
			n += st.Metas[i].Profiles
		}
	}
	return h, n
}
