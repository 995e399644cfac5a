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
// Every partition holds sorted agg.State: a bucket partition is an
// agg.Partition (a base State plus the write buffer ingest appends
// to), a rollup partition a plain State that each fold replaces. Reads
// go through Export: it selects the live buckets overlapping a
// trailing window (plus the rollup for unbounded reads) and merges
// each partition across them with a left fold of agg.Merge — rollup
// first, then live buckets in ring order — so every float is added in
// the order agg documents. A read holds up ingest into a partition
// only while that partition compacts its buffer. witchd folds those
// partitions in one fixed order (unkeyed first, then pushers in id
// order) on a single node and across a fleet alike, so a read's bytes
// depend on what the partitions hold, never on map iteration order.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/wire"
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
	// re-merges every partition across its buckets — the pre-fast-path
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
	// mu guards the partition map itself; each partition has its own
	// mutex, so concurrent merges into one partition are safe once the
	// pointer is out.
	mu    sync.Mutex
	parts map[string]*agg.Partition
}

func newBucket(start time.Time) *bucket {
	return &bucket{start: start, parts: make(map[string]*agg.Partition, 2)}
}

// part returns the partition for id, creating it empty.
func (b *bucket) part(id string) *agg.Partition {
	b.mu.Lock()
	defer b.mu.Unlock()
	a := b.parts[id]
	if a == nil {
		a = new(agg.Partition)
		b.parts[id] = a
	}
	return a
}

// snapshotParts copies the partition pointer set under the map lock.
func (b *bucket) snapshotParts() map[string]*agg.Partition {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]*agg.Partition, len(b.parts))
	for id, a := range b.parts {
		out[id] = a
	}
	return out
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

	// rollup holds evicted history, partitioned like the buckets. Its
	// States are immutable: a fold replaces one with its merge. The map
	// is touched only under foldMu.
	rollup map[string]*agg.State

	// foldMu serializes rollup mutation (fold) against Snapshot, so a
	// bucket is always captured on exactly one side of the rollup
	// boundary. Lock order: foldMu before mu; never mu before foldMu.
	foldMu sync.Mutex

	ingested       atomic.Uint64
	evictedBuckets atomic.Uint64

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
		rollup:      make(map[string]*agg.State),
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
		s.fold(expired)
	}
	b.part(id).Merge(p)
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
		s.rollup[id] = agg.Merge(s.rollup[id], a.State())
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
// reused; every other partition is merged across buckets afresh, a
// left fold of agg.Merge over the rollup's State and then each live
// bucket's, compacted. With a nil prev (Config.NoCache, first read, new
// quantum) every partition is rebuilt.
func (s *Store) exportAt(window time.Duration, now time.Time, vec map[string]uint64, prev *VersionedExport) *Export {
	if window <= 0 {
		s.foldMu.Lock()
		defer s.foldMu.Unlock()
	}
	live := s.liveBuckets(window, now)

	// Each partition's bucket sources in merge order (the rollup, when
	// read, comes before them all).
	srcs := make(map[string][]*agg.Partition)
	if window <= 0 {
		for id := range s.rollup {
			srcs[id] = nil
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
	for id, parts := range srcs {
		st := prev.unchanged(id, vec)
		if st != nil {
			reused++
		} else {
			if window <= 0 {
				st = s.rollup[id]
			}
			for _, a := range parts {
				st = agg.Merge(st, a.State())
			}
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
// layout, rollup included. It is what anti-entropy repair ships and
// what a snapshot holds per pusher.
type PartitionImage struct {
	WindowNanos int64
	Buckets     []PartitionBucket
	Rollup      *agg.State
}

// minImageBytes is the smallest encoded PartitionImage: a window, an
// empty bucket list and an absent rollup.
const minImageBytes = 3

// Encode writes img: WindowNanos, the buckets as (start, presence flag,
// State), then a presence flag and the rollup.
func (img *PartitionImage) Encode(e *wire.Encoder) {
	optState := func(st *agg.State) {
		e.Bool(st != nil)
		if st != nil {
			agg.EncodeState(e, st)
		}
	}
	e.Int(img.WindowNanos)
	e.Uint(uint64(len(img.Buckets)))
	for _, b := range img.Buckets {
		e.Int(b.StartUnixNano)
		optState(b.State)
	}
	optState(img.Rollup)
}

// DecodePartitionImage reads an image Encode wrote. A bucket without a
// State fails the payload: the installer would dereference it.
func DecodePartitionImage(d *wire.Decoder) *PartitionImage {
	img := &PartitionImage{WindowNanos: d.Int()}
	if n := d.Count(2 + agg.MinStateBytes); n > 0 {
		img.Buckets = make([]PartitionBucket, n)
		for i := range img.Buckets {
			b := &img.Buckets[i]
			b.StartUnixNano = d.Int()
			if !d.Bool() {
				d.Fail("partition image bucket %d has no state", i)
			}
			b.State = agg.DecodeState(d)
		}
	}
	if d.Bool() {
		img.Rollup = agg.DecodeState(d)
	}
	return img
}

// PartitionImage captures pusher id's full state. Callers needing an
// exact cut must quiesce ingest for that pusher around the call (witchd
// holds its persistence apply barrier).
func (s *Store) PartitionImage(id string) *PartitionImage {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	img := &PartitionImage{WindowNanos: int64(s.cfg.Window)}
	img.Rollup = s.rollup[id]
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
// repair. Callers needing an exact cut (no concurrent ingest for id)
// must quiesce around the call.
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
	if img != nil {
		s.installLocked(id, img)
	}
}

// installLocked lays img down as pusher id's partition, which must be
// empty: the rollup, then each bucket in its ring slot, merged after an
// earlier image bucket of the same start. A bucket that does not fit
// the ring — another window width, or a slot that holds another start —
// keeps its data and loses only its windowing: it is folded into the
// rollup partition, so all-time queries stay exact under any
// reconfiguration. installLocked returns the starts it folded. Caller
// holds foldMu.
func (s *Store) installLocked(id string, img *PartitionImage) (folded []int64) {
	if img.Rollup != nil {
		s.rollup[id] = img.Rollup
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
			s.rollup[id] = agg.Merge(s.rollup[id], pb.State)
			folded = append(folded, pb.StartUnixNano)
			continue
		}
		b.mu.Lock()
		var st *agg.State
		if a := b.parts[id]; a != nil {
			st = a.State()
		}
		b.parts[id] = agg.NewPartition(agg.Merge(st, pb.State))
		b.mu.Unlock()
	}
	return folded
}

// snapshotVersion guards the snapshot layout; bump on incompatible
// changes so recovery skips (not crashes on) foreign files. Version 1
// was gob, whose files now fail the magic.
const snapshotVersion = 2

// snapshot is one decoded snapshot file: the caller's anchor, the
// store's counters, every pusher's PartitionImage ("" is the anonymous
// partition) and the caller's extra blob.
type snapshot struct {
	anchor, ingested, evicted uint64
	images                    map[string]*PartitionImage
	extra                     []byte
}

// A snapshot file is one agg payload, then an 8-byte trailer:
//
//	version, anchor, ingested, evicted   uint
//	images                               map of pusher id to image
//	extra                                blob
//	trailer                              [CRC-32C of everything before
//	                                     it][magic "WSN1"], big-endian
//
// The trailer catches a truncated or bit-flipped file at load time,
// before it can decode into silently wrong aggregates.
const snapTrailerMagic = 0x57534e31 // "WSN1"

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// encode returns the snapshot file's bytes.
func (sn *snapshot) encode() []byte {
	e := agg.NewEncoder(nil)
	for _, x := range [...]uint64{snapshotVersion, sn.anchor, sn.ingested, sn.evicted} {
		e.Uint(x)
	}
	wire.EncodeMap(e, sn.images, func(img *PartitionImage) { img.Encode(e) })
	e.Blob(sn.extra)
	body := e.Bytes()
	body = binary.BigEndian.AppendUint32(body, crc32.Checksum(body, snapCRCTable))
	return binary.BigEndian.AppendUint32(body, snapTrailerMagic)
}

// decodeSnapshot reads a snapshot file. A file without its trailer,
// with a mismatched one, in another format or version (a gob file of an
// older build) or with any State out of order is an error.
func decodeSnapshot(data []byte) (*snapshot, error) {
	n := len(data)
	if n < 8 || binary.BigEndian.Uint32(data[n-4:]) != snapTrailerMagic {
		return nil, fmt.Errorf("store: snapshot has no trailer")
	}
	body := data[:n-8]
	if got, want := crc32.Checksum(body, snapCRCTable), binary.BigEndian.Uint32(data[n-8:n-4]); got != want {
		return nil, fmt.Errorf("store: snapshot checksum mismatch: crc32c %08x, trailer says %08x", got, want)
	}
	d := agg.NewDecoder(body)
	if v := d.Uint(); v != snapshotVersion {
		d.Fail("snapshot version %d unsupported (this build reads %d)", v, snapshotVersion)
	}
	sn := &snapshot{anchor: d.Uint(), ingested: d.Uint(), evicted: d.Uint()}
	sn.images = wire.DecodeMap(d, minImageBytes, func() *PartitionImage { return DecodePartitionImage(d) })
	sn.extra = d.Blob()
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	return sn, nil
}

// Snapshot encodes the full retention state — ring, pending folds, and
// rollup, each pusher's as its PartitionImage — to w, followed by the
// CRC-32C trailer. anchor is an opaque caller cursor (witchd stores the
// journal LSN the snapshot covers) and extra an opaque caller blob
// (witchd: dedup windows); both are returned verbatim by Restore.
//
// The images are captured under the fold barrier, so eviction cannot
// move a bucket across the rollup boundary mid-capture: every bucket
// lands on exactly one side (TestSnapshotRacesEviction). Captured
// States are immutable, so the encode runs outside it. Concurrent
// ingest into live buckets remains possible — callers needing an exact
// cut (witchd does, for replay consistency) must quiesce ingest around
// the call.
func (s *Store) Snapshot(w io.Writer, anchor uint64, extra []byte) error {
	sn := &snapshot{anchor: anchor, extra: extra}
	s.foldMu.Lock()
	sn.ingested, sn.evicted = s.ingested.Load(), s.evictedBuckets.Load()
	sn.images = make(map[string]*PartitionImage, len(s.rollup))
	image := func(id string) *PartitionImage {
		img := sn.images[id]
		if img == nil {
			img = &PartitionImage{WindowNanos: int64(s.cfg.Window)}
			sn.images[id] = img
		}
		return img
	}
	for id, st := range s.rollup {
		image(id).Rollup = st
	}
	for _, b := range s.liveBuckets(0, time.Time{}) {
		for id, a := range b.snapshotParts() {
			img := image(id)
			img.Buckets = append(img.Buckets, PartitionBucket{StartUnixNano: b.start.UnixNano(), State: a.State()})
		}
	}
	s.foldMu.Unlock()
	if _, err := w.Write(sn.encode()); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	return nil
}

// Restore replaces the store's state with a snapshot, returning the
// caller anchor and extra blob it was written with. Meant for a freshly
// built store during recovery, before serving. A file decodeSnapshot
// rejects returns its error, so recovery can fall back to the
// next-newest snapshot, and leaves the store as it was. Each image is
// installed the way ReplacePartition installs one, pushers in id
// order; the buckets that no longer fit the ring are counted as
// evicted.
func (s *Store) Restore(r io.Reader) (anchor uint64, extra []byte, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	sn, err := decodeSnapshot(data)
	if err != nil {
		return 0, nil, err
	}
	ids := make([]string, 0, len(sn.images))
	for id := range sn.images {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	folded := make(map[int64]bool)
	s.foldMu.Lock()
	s.mu.Lock()
	s.ring = make([]*bucket, s.cfg.Buckets)
	s.pending = nil
	s.mu.Unlock()
	s.rollup = make(map[string]*agg.State)
	for _, id := range ids {
		for _, start := range s.installLocked(id, sn.images[id]) {
			folded[start] = true
		}
	}
	s.foldMu.Unlock()
	s.ingested.Store(sn.ingested)
	s.evictedBuckets.Store(sn.evicted + uint64(len(folded)))

	// The world changed wholesale: start a fresh generation (so a
	// coordinator's delta baseline from the old life can never falsely
	// match the new epoch numbering), restamp every restored partition,
	// and drop all memoized results. Restore's contract is a fresh store
	// before serving, so no reader races this reset.
	s.epochMu.Lock()
	s.gen.Store(nextGen())
	s.epoch.Store(0)
	s.partEpochs = make(map[string]uint64, len(ids))
	s.epochMu.Unlock()
	for _, id := range ids {
		s.noteMutation(id)
	}
	s.invalidateCaches()
	s.rebuildTools()
	return sn.anchor, sn.extra, nil
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

// Stats snapshots the retention counters, compacting every partition
// for its pair count. Only /metrics, /healthz and the harness call it.
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
	for id, rs := range s.rollup {
		st.RollupPairs += len(rs.Pairs)
		if id != "" {
			seen[id] = true
		}
	}
	st.LiveBuckets = len(live)
	for _, b := range live {
		for id, a := range b.snapshotParts() {
			st.LivePairs += len(a.State().Pairs)
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
