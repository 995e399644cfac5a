// Package agg merges witch profiles from many runs, processes, and
// machines into one queryable view — the fleet-level aggregation layer
// behind the witchd daemon. The paper separates collection from
// inspection (hpcrun measurement files consumed postmortem by hpcviewer,
// §6.5); agg extends that split from one file per run to a continuous
// stream of runs.
//
// Merging preserves the §4.2 proportional-attribution semantics: every
// pair's waste and use are plain sums over the contributing profiles, so
// merging k identical profiles scales waste and use by k while the
// redundancy fraction waste/(waste+use) — Equation 1 — stays fixed.
//
// One aggregate shape carries every sum: the sorted State. A store
// partition is a Partition, an immutable sorted base State plus a write
// buffer of the rows ingested since that base was built; compaction
// merges the buffer into a fresh base in one linear pass. Whole States
// combine by Merge, a linear two-way merge, and a read folds the States
// it renders into a View. Between nodes and at rest a State has one
// canonical binary encoding (Encoder and Decoder, codec.go), whose
// decoder checks the State order contract.
//
// Addition order contract. A float sum depends on the order of its
// additions, so every path adds in one documented order, and equal
// inputs give equal bits:
//   - a pair row starts from +0 and adds each contribution in turn; a
//     meta row starts as a copy of its first contribution. The first
//     contribution's SrcLine/DstLine are kept.
//   - a Partition adds its profiles in ingest order, one buffered row at
//     a time into the base row (two buffered rows are never summed
//     first).
//   - Merge(a, b) adds b's row into a's; a left fold of Merge adds its
//     States in fold order, and a View adds its States in Fold order.
package agg

import (
	"slices"
	"sync"

	"repro/witch"
)

// minBuffer is the smallest buffer, in rows, that makes a Partition
// compact: below a base of this many rows, compaction's linear pass
// over the base is still paid for by at least this many buffered rows.
const minBuffer = 64

// Partition is one store partition's aggregate: an immutable sorted
// base State plus a write buffer of the rows merged since the base was
// built, both behind one mutex. Merge appends; State compacts and
// returns the base, which callers share read-only. The buffer is
// compacted whenever it outgrows the base (and minBuffer), so it never
// holds more rows than the larger of the two. The zero value is an
// empty partition.
type Partition struct {
	mu    sync.Mutex
	base  *State
	metas []MetaState // buffered, in ingest order
	pairs []PairState // buffered, in ingest order
}

// NewPartition returns a partition whose base is st, which must obey
// the State order contract and is shared, not copied.
func NewPartition(st *State) *Partition { return &Partition{base: st} }

// Merge buffers one profile's rows. Safe for concurrent use.
func (p *Partition) Merge(prof *witch.Profile) {
	pairs := prof.TopPairs(0)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.metas = append(p.metas, MetaState{
		Tool: prof.Tool, Program: prof.Program,
		Profiles: 1, Waste: prof.Waste, Use: prof.Use,
		WallNanos: prof.WallTime.Nanoseconds(), ToolBytes: prof.ToolBytes,
		Instrs: prof.Instrs, Loads: prof.Loads, Stores: prof.Stores,
		Exhaustive: prof.Exhaustive, Stats: prof.Stats, Health: prof.Health,
	})
	for i := range pairs {
		pr := &pairs[i]
		p.pairs = append(p.pairs, PairState{
			Tool: prof.Tool, Program: prof.Program,
			Src: pr.Src, Dst: pr.Dst, Chain: pr.Chain,
			Waste: pr.Waste, Use: pr.Use,
			SrcLine: pr.SrcLine, DstLine: pr.DstLine,
		})
	}
	var held int
	if p.base != nil {
		held = len(p.base.Metas) + len(p.base.Pairs)
	}
	if len(p.metas)+len(p.pairs) > max(held, minBuffer) {
		p.compact()
	}
}

// State compacts the buffer and returns the base: every row merged so
// far, in the State order contract. The result is shared and must not
// be modified. Safe for concurrent use.
func (p *Partition) State() *State {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.compact()
	return p.base
}

// compact merges the buffer into a fresh base: the buffer is ordered
// by a stable sort, so rows of one key keep their ingest order, and
// each is added into its base row one at a time. The buffer keeps its
// capacity. Caller holds p.mu.
func (p *Partition) compact() {
	if p.base != nil && len(p.metas) == 0 && len(p.pairs) == 0 {
		return
	}
	base := p.base
	if base == nil {
		base = &State{}
	}
	p.base = &State{
		Metas: mergeRows(base.Metas, p.metas, stableOrder(p.metas, cmpMeta), cmpMeta, firstMeta, addMeta),
		Pairs: mergeRows(base.Pairs, p.pairs, stableOrder(p.pairs, cmpPair), cmpPair, firstPair, addPair),
	}
	clear(p.metas)
	clear(p.pairs)
	p.metas, p.pairs = p.metas[:0], p.pairs[:0]
}

// stableOrder returns the indices of rows in key order, ties in index
// order: a stable sort that moves 4-byte indices instead of rows.
func stableOrder[T any](rows []T, cmp func(x, y *T) int) []int32 {
	order := make([]int32, len(rows))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		if c := cmp(&rows[i], &rows[j]); c != 0 {
			return c
		}
		return int(i - j)
	})
	return order
}

// mergeRows merges rows into the sorted, duplicate-free base, visiting
// them in key order through order (nil: as they stand). A row whose
// key the output already holds is added into that output row; any
// other row starts a new output row through first. The result is
// sorted, duplicate-free and exactly sized, shares no array with its
// inputs, and is nil when empty (State's JSON encoding tells nil from
// empty).
func mergeRows[T any](base, rows []T, order []int32, cmp func(x, y *T) int, first func(r *T) T, add func(dst, r *T)) []T {
	row := func(k int) *T {
		if order != nil {
			return &rows[order[k]]
		}
		return &rows[k]
	}
	// Count the output's keys first, so it is allocated once and pins
	// no slack for the lifetime of a base or an export.
	size, i := 0, 0
	for k := range rows {
		r := row(k)
		if k > 0 && cmp(row(k-1), r) == 0 {
			continue
		}
		for i < len(base) && cmp(&base[i], r) < 0 {
			i++
			size++
		}
		if i < len(base) && cmp(&base[i], r) == 0 {
			i++
		}
		size++
	}
	size += len(base) - i
	if size == 0 {
		return nil
	}
	out := make([]T, 0, size)
	i = 0
	for k := range rows {
		r := row(k)
		for i < len(base) && cmp(&base[i], r) < 0 {
			out = append(out, base[i])
			i++
		}
		switch {
		case len(out) > 0 && cmp(&out[len(out)-1], r) == 0:
			add(&out[len(out)-1], r)
		case i < len(base) && cmp(&base[i], r) == 0:
			out = append(out, base[i])
			i++
			add(&out[len(out)-1], r)
		default:
			out = append(out, first(r))
		}
	}
	return append(out, base[i:]...)
}

// firstPair starts a pair row from +0, then adds r.
func firstPair(r *PairState) PairState {
	out := *r
	out.Waste, out.Use = 0, 0
	addPair(&out, r)
	return out
}

func addPair(dst, r *PairState) {
	dst.Waste += r.Waste
	dst.Use += r.Use
}

// firstMeta starts a meta row as a copy of its first contribution.
func firstMeta(r *MetaState) MetaState { return *r }

// addMeta folds one scalar bundle into a (tool, program) row.
func addMeta(dst, m *MetaState) {
	dst.Profiles += m.Profiles
	dst.Waste += m.Waste
	dst.Use += m.Use
	dst.WallNanos += m.WallNanos
	dst.ToolBytes += m.ToolBytes
	dst.Instrs += m.Instrs
	dst.Loads += m.Loads
	dst.Stores += m.Stores
	dst.Exhaustive = dst.Exhaustive || m.Exhaustive
	dst.Stats = mergeStats(dst.Stats, m.Stats)
	dst.Health = MergeHealth(dst.Health, m.Health)
}

// mergeStats sums framework counters; MaxBlindSpot is a maximum, not a
// sum — the fleet-level figure is the worst blind spot any run saw.
func mergeStats(x, y witch.Stats) witch.Stats {
	x.Samples += y.Samples
	x.Monitored += y.Monitored
	x.Traps += y.Traps
	x.SpuriousTraps += y.SpuriousTraps
	if y.MaxBlindSpot > x.MaxBlindSpot {
		x.MaxBlindSpot = y.MaxBlindSpot
	}
	x.Opens += y.Opens
	x.Closes += y.Closes
	x.Modifies += y.Modifies
	x.DisasmInstrs += y.DisasmInstrs
	return x
}

// MergeHealth combines degradation records: counters sum, flags OR,
// ConfiguredRegs is the largest configuration seen and EffectiveRegs the
// smallest any contributing run ended with (zero means "no sampling
// substrate", e.g. an exhaustive run, and never wins the minimum). The
// /healthz endpoint serves this so degraded clients are visible
// fleet-wide.
func MergeHealth(x, y witch.Health) witch.Health {
	x.SignalsLost += y.SignalsLost
	x.RingLost += y.RingLost
	x.ArmFailures += y.ArmFailures
	x.ArmRetries += y.ArmRetries
	x.ModifyFallbacks += y.ModifyFallbacks
	x.LBROutages += y.LBROutages
	if y.ConfiguredRegs > x.ConfiguredRegs {
		x.ConfiguredRegs = y.ConfiguredRegs
	}
	if y.EffectiveRegs > 0 && (x.EffectiveRegs == 0 || y.EffectiveRegs < x.EffectiveRegs) {
		x.EffectiveRegs = y.EffectiveRegs
	}
	x.RegistersShrunk = x.RegistersShrunk || y.RegistersShrunk
	x.SampleLoss = x.SampleLoss || y.SampleLoss
	x.Degraded = x.Degraded || y.Degraded
	return x
}
