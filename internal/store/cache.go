// Query fast path: epoch-versioned memoization.
//
// Every read used to pay O(total state): each one re-merged every
// partition of every live bucket, Export rebuilt the whole scatter
// payload per fleet query, and /healthz re-folded all-time history
// just to list tools. This file makes reads incremental. The
// store keeps one mutation epoch — a counter bumped by ingest,
// fold/eviction, partition replacement, and restore — plus a
// per-partition epoch vector recording the store epoch at each
// partition's last mutation. The window export (ExportVersioned) is
// the one memoized result: every query, anti-entropy digest and
// /healthz fold reads it. It is cached keyed by the epoch it was built
// from and returned without re-merging while the epoch is unchanged.
// Invalidation is epoch-compare, never TTL: a cached result is served
// only when provably nothing changed, so cached and uncached answers
// are byte-identical by construction.
//
// Windowed results additionally depend on the clock: the live-bucket
// filter admits bucket b while b.start+Window > now-window, and both
// sides are multiples of the bucket width, so a windowed result can
// only change (absent mutation) when now-window crosses a bucket
// boundary. bucketIdx quantizes that: floor((now-window)/Window), 0
// for all-time queries. A cache entry is valid while (epoch,
// bucketIdx) both match.
//
// The epoch is read BEFORE building a cacheable result. A mutation
// landing mid-build may or may not be included, but either way the
// entry is recorded at the pre-build epoch, the mutation bumped past
// it, and the next read rebuilds — the cache can serve fresh data
// labeled old, never stale data labeled current.
//
// An export miss is O(changed partitions), not O(total state). When
// the window's previous export has the same generation and bucketIdx,
// each partition whose epoch in the fresh vector equals the epoch that
// export carries for it reuses that export's *agg.State; only the
// other partitions are merged across buckets again. The
// rule that makes a whole-export hit safe makes a per-partition reuse
// safe: an equal partition epoch proves no mutation of that partition
// since the earlier vector read, and the equal bucketIdx proves the
// same bucket set. Config.NoCache keeps no previous export, so it
// still rebuilds everything — the oracle.
//
// Restore swaps the whole world, so it also regenerates the store's
// generation stamp. The generation is part of ExportVersion: a
// coordinator holding a delta baseline from a peer that restarted (or
// restored) can never falsely match epochs that restarted from zero.
package store

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/agg"
)

// genCounter makes store generations unique within a process even
// under injected fixed clocks (harness restarts build fresh stores).
var genCounter atomic.Uint64

func nextGen() uint64 {
	return uint64(time.Now().UnixNano()) + genCounter.Add(1)<<1
}

// maxCachedWindows bounds the export memo: exports are retained per
// distinct window until the map would grow past it; then the whole map
// is dropped and repopulated by demand. Real deployments query a
// handful of windows, so eviction is a safety valve, not a policy.
const maxCachedWindows = 32

type exportEntry struct {
	epoch uint64
	idx   int64
	ve    *VersionedExport
}

// noteMutation advances the store epoch and stamps partition id with
// it. Called after the mutated data is fully visible to readers, so a
// reader that already loaded the pre-bump epoch can at worst cache a
// fresher-than-labeled result (see the package comment in this file).
// epochMu keeps (epoch, vector) reads consistent: Version and
// ExportVersioned copy both under the same lock.
func (s *Store) noteMutation(id string) {
	s.epochMu.Lock()
	e := s.epoch.Add(1)
	s.partEpochs[id] = e
	s.epochMu.Unlock()
}

// noteTool records a tool sighting for the O(1) tools list.
func (s *Store) noteTool(tool string) {
	s.toolsMu.Lock()
	if !s.tools[tool] {
		s.tools[tool] = true
		s.toolsSorted = nil
	}
	s.toolsMu.Unlock()
}

// rebuildTools recomputes the tool set from the held States — the
// slow path for the rare operations that can remove data (partition
// removal, restore).
func (s *Store) rebuildTools() {
	s.foldMu.Lock()
	s.rebuildToolsLocked()
	s.foldMu.Unlock()
}

// rebuildToolsLocked is rebuildTools for callers already holding
// foldMu (ReplacePartition mutates under the barrier).
func (s *Store) rebuildToolsLocked() {
	set := make(map[string]bool)
	note := func(st *agg.State) {
		for i := range st.Metas {
			set[st.Metas[i].Tool] = true
		}
	}
	for _, st := range s.rollup {
		note(st)
	}
	for _, b := range s.liveBuckets(0, time.Time{}) {
		for _, a := range b.snapshotParts() {
			note(a.State())
		}
	}
	s.toolsMu.Lock()
	s.tools = set
	s.toolsSorted = nil
	s.toolsMu.Unlock()
}

// Tools lists every tool that has contributed data, sorted. Served
// from the maintained set — O(distinct tools), not O(total state) —
// which is what lets /healthz stop rebuilding all-time history.
func (s *Store) Tools() []string {
	s.toolsMu.Lock()
	defer s.toolsMu.Unlock()
	if s.toolsSorted == nil {
		s.toolsSorted = make([]string, 0, len(s.tools))
		for t := range s.tools {
			s.toolsSorted = append(s.toolsSorted, t)
		}
		sort.Strings(s.toolsSorted)
	}
	return s.toolsSorted
}

// bucketIdx quantizes the clock for windowed cache validity: the
// live-bucket filter's accepted set changes only when now-window
// crosses a multiple of the bucket width. All-time queries (window <=
// 0) are clock-independent and pin to 0.
func (s *Store) bucketIdx(window time.Duration, now time.Time) int64 {
	if window <= 0 {
		return 0
	}
	c := now.Add(-window).UnixNano()
	w := int64(s.cfg.Window)
	idx := c / w
	if c%w < 0 {
		idx-- // floor division: negative cutoffs must round down
	}
	return idx
}

// Version identifies what a read of the store at a given window would
// see: the generation (survives nothing — regenerated per Store and
// on Restore), the mutation epoch, and the window's clock quantum.
// Two reads with equal Versions return byte-identical results.
type Version struct {
	Gen       uint64
	Epoch     uint64
	BucketIdx int64
}

// Version returns the store's current version for a window. O(1).
func (s *Store) Version(window time.Duration) Version {
	return Version{
		Gen:       s.gen.Load(),
		Epoch:     s.epoch.Load(),
		BucketIdx: s.bucketIdx(window, s.cfg.Now()),
	}
}

// Epoch returns the store-wide mutation epoch (monotone per
// generation; restarts from a Restore reset it under a new Gen).
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// CacheStats counts export memo traffic for /metrics.
// ExportPartsReused and ExportPartsRebuilt count, over every export
// miss, the partitions taken unchanged from the previous export and
// those merged afresh.
type CacheStats struct {
	ExportHits         uint64 `json:"export_hits"`
	ExportMisses       uint64 `json:"export_misses"`
	ExportPartsReused  uint64 `json:"export_parts_reused"`
	ExportPartsRebuilt uint64 `json:"export_parts_rebuilt"`
}

// CacheStats snapshots the export memo counters.
func (s *Store) CacheStats() CacheStats {
	return CacheStats{
		ExportHits:         s.exportHits.Load(),
		ExportMisses:       s.exportMisses.Load(),
		ExportPartsReused:  s.exportPartsReused.Load(),
		ExportPartsRebuilt: s.exportPartsRebuilt.Load(),
	}
}

// invalidateCaches drops every memoized export — the Restore path,
// where the world changes wholesale under a new generation.
func (s *Store) invalidateCaches() {
	s.cacheMu.Lock()
	s.exportCache = make(map[time.Duration]*exportEntry)
	s.cacheMu.Unlock()
}

// ExportVersion is the freshness vector a versioned export carries
// and a delta request presents: the exporter's generation, the
// window's clock quantum, and each exported partition's epoch (the
// anonymous partition under ""). Epoch comparison is only meaningful
// within one (Gen, BucketIdx) pair; across them the caller's baseline
// is useless and the exporter falls back to a full export.
type ExportVersion struct {
	Gen       uint64
	BucketIdx int64
	Epochs    map[string]uint64
}

// VersionedExport pairs a window export with the version it was built
// at. The export (and the version's Epochs map) is shared across
// callers and must be treated as read-only.
type VersionedExport struct {
	Export *Export
	Ver    ExportVersion
}

// ExportVersioned is Export plus the version vector delta scatter
// diffs against. While (epoch, bucketIdx) are unchanged, the same
// *VersionedExport comes back without re-merging.
// A miss rebuilds only the partitions whose epochs moved since the
// window's previous export; every other partition reuses that
// export's *agg.State (see exportAt).
func (s *Store) ExportVersioned(window time.Duration) *VersionedExport {
	now := s.cfg.Now()
	idx := s.bucketIdx(window, now)
	// Read the generation, the epoch and the partition vector before
	// building: a mutation mid-build bumps past them and forces the next
	// read to rebuild that partition.
	s.epochMu.Lock()
	gen := s.gen.Load()
	e := s.epoch.Load()
	vec := make(map[string]uint64, len(s.partEpochs))
	for id, pe := range s.partEpochs {
		vec[id] = pe
	}
	s.epochMu.Unlock()

	var prev *VersionedExport
	if !s.cfg.NoCache {
		s.cacheMu.Lock()
		ent := s.exportCache[window]
		s.cacheMu.Unlock()
		if ent != nil && ent.idx == idx && ent.ve.Ver.Gen == gen {
			if ent.epoch == e {
				s.exportHits.Add(1)
				return ent.ve
			}
			prev = ent.ve
		}
	}
	s.exportMisses.Add(1)

	exp := s.exportAt(window, now, vec, prev)
	ve := &VersionedExport{
		Export: exp,
		Ver:    ExportVersion{Gen: gen, BucketIdx: idx, Epochs: make(map[string]uint64, len(exp.Parts))},
	}
	// The vector covers exactly the partitions present in this window's
	// export: absent ids read as 0 on the diff side, which re-ships
	// them the moment they appear.
	for id := range exp.Parts {
		ve.Ver.Epochs[id] = vec[id]
	}

	if !s.cfg.NoCache {
		s.cacheMu.Lock()
		if len(s.exportCache) >= maxCachedWindows {
			s.exportCache = make(map[time.Duration]*exportEntry)
		}
		s.exportCache[window] = &exportEntry{epoch: e, idx: idx, ve: ve}
		s.cacheMu.Unlock()
	}
	return ve
}

// unchanged returns ve's State for partition id when id's epoch in vec
// equals the epoch ve was labeled with — no mutation of id since ve
// read its vector — and nil otherwise (or on a nil ve).
func (ve *VersionedExport) unchanged(id string, vec map[string]uint64) *agg.State {
	if ve == nil {
		return nil
	}
	if pe, ok := ve.Ver.Epochs[id]; !ok || pe != vec[id] {
		return nil
	}
	return ve.Export.Parts[id]
}

// ExportDelta is what /v1/shard v2 ships: either a full export (the
// caller's baseline was missing, from another generation, or from
// another clock quantum) or just the partitions whose epochs moved
// past the caller's vector, plus tombstones for the partitions the
// caller still holds that no longer exist in the window. Applying a
// delta to the baseline it was diffed against reproduces the full
// export exactly — same *agg.State values, so folds over the patched
// baseline are byte-identical to folds over a fresh full export.
type ExportDelta struct {
	Full       bool
	Export     *Export
	Tombstones []string
	Ver        ExportVersion
}

// ExportDelta diffs the current window export against a caller's
// last-seen version vector.
func (s *Store) ExportDelta(window time.Duration, since ExportVersion) *ExportDelta {
	ve := s.ExportVersioned(window)
	if since.Epochs == nil || since.Gen != ve.Ver.Gen || since.BucketIdx != ve.Ver.BucketIdx {
		return &ExportDelta{Full: true, Export: ve.Export, Ver: ve.Ver}
	}
	out := &Export{Parts: make(map[string]*agg.State)}
	for id, e := range ve.Ver.Epochs {
		if since.Epochs[id] == e {
			continue
		}
		out.Parts[id] = ve.Export.Parts[id]
	}
	var tombs []string
	for id := range since.Epochs {
		if _, ok := ve.Ver.Epochs[id]; !ok {
			tombs = append(tombs, id)
		}
	}
	sort.Strings(tombs)
	return &ExportDelta{Export: out, Tombstones: tombs, Ver: ve.Ver}
}
