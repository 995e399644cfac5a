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
// Merge is commutative and associative (it is a sum), which is what lets
// the store fold expired retention buckets into a rollup without
// changing any ranking.
//
// The aggregator is lock-striped: pair accumulators are sharded by a
// hash of their ⟨tool, program, context-pair signature⟩ key so
// concurrent ingest from many pushers contends only per shard, and the
// per-(tool, program) scalar totals live under a separate small lock.
package agg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/witch"
)

// numShards is the lock-stripe width for pair accumulators. 64 shards
// keep 8–16 concurrent pushers mostly contention-free while the
// per-shard maps stay small enough to snapshot cheaply. Must be a power
// of two: shard routing is a mask over the precomputed pair hash.
const numShards = 64

// pairKey identifies one merged pair stream: the tool that found it, the
// program it was found in, and the full context-pair signature (leaf
// locations plus the synthetic chain, i.e. the complete ⟨C_watch,
// C_trap⟩ calling contexts of §4.2 — two pairs with the same leaves but
// different chains stay distinct, exactly as they do in one profile).
type pairKey struct {
	tool    string
	program string
	src     string
	dst     string
	chain   string
}

// pairAcc accumulates one pair stream's metrics. It embeds its key and
// the key's 64-bit hash — the map is keyed by that hash alone (one
// word-sized comparison instead of five string comparisons on lookup),
// with genuine hash collisions chained through next and resolved by
// full key equality.
type pairAcc struct {
	pairKey
	hash             uint64
	waste, use       float64
	srcLine, dstLine int
	next             *pairAcc // hash-collision chain
}

// shard is one lock stripe of the pair map. count tracks accumulators
// including chained collisions, which len(pairs) would undercount.
type shard struct {
	mu    sync.Mutex
	pairs map[uint64]*pairAcc
	count int
}

// find walks the hash slot's chain for an exact key match. Caller holds
// sh.mu.
func (sh *shard) find(h uint64, tool, program, src, dst, chain string) *pairAcc {
	for acc := sh.pairs[h]; acc != nil; acc = acc.next {
		if acc.tool == tool && acc.program == program &&
			acc.src == src && acc.dst == dst && acc.chain == chain {
			return acc
		}
	}
	return nil
}

// insert adds a new accumulator to its hash slot. Caller holds sh.mu
// and has checked find missed.
func (sh *shard) insert(acc *pairAcc) {
	acc.next = sh.pairs[acc.hash]
	sh.pairs[acc.hash] = acc
	sh.count++
}

// FNV-1a 64 constants; the hash is computed inline (hash/fnv's Writer
// interface would allocate per string on this, the hottest loop the
// daemon has).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashPart folds one string plus a 0-byte separator into h, so
// ("ab","c") and ("a","bc") hash differently.
func hashPart(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // separator: h ^= 0 is a no-op, the multiply is not
	return h
}

// hashKey computes the pair-stream hash used for both shard routing
// (low bits) and map keying.
func hashKey(tool, program, src, dst, chain string) uint64 {
	h := hashPart(fnvOffset64, tool)
	h = hashPart(h, program)
	h = hashPart(h, src)
	h = hashPart(h, dst)
	return hashPart(h, chain)
}

// metaKey groups profile-level scalars.
type metaKey struct {
	tool    string
	program string
}

// meta is the per-(tool, program) scalar accumulator.
type meta struct {
	profiles   uint64
	waste, use float64
	wallNanos  int64
	toolBytes  uint64
	instrs     uint64
	loads      uint64
	stores     uint64
	exhaustive bool
	stats      witch.Stats
	health     witch.Health
}

// Aggregator merges profiles. The zero value is not usable; call New.
type Aggregator struct {
	shards [numShards]shard

	metaMu sync.Mutex
	metas  map[metaKey]*meta
}

// New returns an empty aggregator.
func New() *Aggregator { return NewSized(0) }

// NewSized returns an empty aggregator whose shard maps are pre-sized
// for about pairHint distinct pair streams, so a bulk fold (retention
// rollup, a query-time merge of the ring) skips the incremental map
// growth. A zero or negative hint means no pre-sizing.
func NewSized(pairHint int) *Aggregator {
	a := &Aggregator{metas: make(map[metaKey]*meta)}
	per := 0
	if pairHint > 0 {
		per = pairHint/numShards + 1
	}
	for i := range a.shards {
		a.shards[i].pairs = make(map[uint64]*pairAcc, per)
	}
	return a
}

// Merge folds one profile into the aggregate. Safe for concurrent use.
func (a *Aggregator) Merge(p *witch.Profile) {
	a.mergeMeta(metaKey{p.Tool, p.Program}, meta{
		profiles:   1,
		waste:      p.Waste,
		use:        p.Use,
		wallNanos:  p.WallTime.Nanoseconds(),
		toolBytes:  p.ToolBytes,
		instrs:     p.Instrs,
		loads:      p.Loads,
		stores:     p.Stores,
		exhaustive: p.Exhaustive,
		stats:      p.Stats,
		health:     p.Health,
	})
	for _, pr := range p.TopPairs(0) {
		h := hashKey(p.Tool, p.Program, pr.Src, pr.Dst, pr.Chain)
		sh := &a.shards[h&(numShards-1)]
		sh.mu.Lock()
		acc := sh.find(h, p.Tool, p.Program, pr.Src, pr.Dst, pr.Chain)
		if acc == nil {
			acc = &pairAcc{
				pairKey: pairKey{p.Tool, p.Program, pr.Src, pr.Dst, pr.Chain},
				hash:    h,
				srcLine: pr.SrcLine, dstLine: pr.DstLine,
			}
			sh.insert(acc)
		}
		acc.waste += pr.Waste
		acc.use += pr.Use
		sh.mu.Unlock()
	}
}

// MergeFrom folds another aggregator into this one — the operation the
// store uses to roll expired retention buckets into the long-tail
// rollup, and the reason merge associativity across shard boundaries is
// a tested property. Concurrent Merge calls on either side are safe
// (everything is read and written under the shard locks), but a merge
// landing in other mid-copy may miss this pass — callers wanting an
// exact cut must quiesce other first, as the store's eviction does. Two
// aggregators must not MergeFrom each other concurrently (lock order).
func (a *Aggregator) MergeFrom(other *Aggregator) {
	other.metaMu.Lock()
	for k, m := range other.metas {
		a.mergeMeta(k, *m)
	}
	other.metaMu.Unlock()
	for i := range other.shards {
		osh := &other.shards[i]
		osh.mu.Lock()
		for _, head := range osh.pairs {
			// The source accumulator carries its hash, so a cross-
			// aggregator fold never re-hashes a single string.
			for acc := head; acc != nil; acc = acc.next {
				sh := &a.shards[acc.hash&(numShards-1)]
				sh.mu.Lock()
				dst := sh.find(acc.hash, acc.tool, acc.program, acc.src, acc.dst, acc.chain)
				if dst == nil {
					dst = &pairAcc{
						pairKey: acc.pairKey,
						hash:    acc.hash,
						srcLine: acc.srcLine, dstLine: acc.dstLine,
					}
					sh.insert(dst)
				}
				dst.waste += acc.waste
				dst.use += acc.use
				sh.mu.Unlock()
			}
		}
		osh.mu.Unlock()
	}
}

// mergeMeta folds one scalar bundle into the (tool, program) totals.
// By-value m keeps the per-profile bundle off the heap except on the
// first sighting of a (tool, program) group.
func (a *Aggregator) mergeMeta(k metaKey, m meta) {
	a.metaMu.Lock()
	defer a.metaMu.Unlock()
	dst := a.metas[k]
	if dst == nil {
		cp := m
		a.metas[k] = &cp
		return
	}
	dst.profiles += m.profiles
	dst.waste += m.waste
	dst.use += m.use
	dst.wallNanos += m.wallNanos
	dst.toolBytes += m.toolBytes
	dst.instrs += m.instrs
	dst.loads += m.loads
	dst.stores += m.stores
	dst.exhaustive = dst.exhaustive || m.exhaustive
	dst.stats = mergeStats(dst.stats, m.stats)
	dst.health = MergeHealth(dst.health, m.health)
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

// Snapshot re-materializes the merged profile for one tool, optionally
// filtered to one program (program == "" merges across programs). Pairs
// are ranked exactly as a single profile ranks them — waste descending,
// chain ascending on ties — so a single-source snapshot round-trips
// bit-compatibly through WriteJSON/witchdiff. Returns nil if nothing
// matching has been merged.
func (a *Aggregator) Snapshot(tool, program string) *witch.Profile {
	mk, n := a.combinedMeta(tool, program)
	if n == 0 {
		return nil
	}
	progName := program
	if program == "" {
		progs := a.Programs(tool)
		if len(progs) == 1 {
			progName = progs[0]
		} else {
			progName = fmt.Sprintf("merged(%d programs)", len(progs))
		}
	}
	pairs := a.pairsFor(tool, program)
	red := 0.0
	if mk.waste+mk.use > 0 {
		red = mk.waste / (mk.waste + mk.use)
	}
	return witch.NewProfile(witch.Profile{
		Program:    progName,
		Tool:       tool,
		Exhaustive: mk.exhaustive,
		Redundancy: red,
		Waste:      mk.waste,
		Use:        mk.use,
		WallTime:   time.Duration(mk.wallNanos),
		ToolBytes:  mk.toolBytes,
		Instrs:     mk.instrs,
		Loads:      mk.loads,
		Stores:     mk.stores,
		Stats:      mk.stats,
		Health:     mk.health,
	}, pairs)
}

// combinedMeta folds the matching (tool, program) scalar groups in
// sorted program order and returns the number of contributing
// profiles.
func (a *Aggregator) combinedMeta(tool, program string) (meta, uint64) {
	var out meta
	a.metaMu.Lock()
	defer a.metaMu.Unlock()
	// Fold in program order: float sums depend on the order of their
	// additions, and map iteration order is random. The stack buffer
	// keeps a query over a few programs allocation-free.
	var buf [16]metaKey
	keys := buf[:0]
	for k := range a.metas {
		if k.tool == tool && (program == "" || k.program == program) {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y metaKey) int { return strings.Compare(x.program, y.program) })
	for _, k := range keys {
		m := a.metas[k]
		out.profiles += m.profiles
		out.waste += m.waste
		out.use += m.use
		out.wallNanos += m.wallNanos
		out.toolBytes += m.toolBytes
		out.instrs += m.instrs
		out.loads += m.loads
		out.stores += m.stores
		out.exhaustive = out.exhaustive || m.exhaustive
		out.stats = mergeStats(out.stats, m.stats)
		out.health = MergeHealth(out.health, m.health)
	}
	return out, out.profiles
}

// pairsFor collects and ranks the merged pairs matching a tool and
// optional program filter. Witch.Pair carries the chain, so ranking
// sorts the output slice directly — no wrapper structs — and a count
// pass sizes that one allocation exactly.
func (a *Aggregator) pairsFor(tool, program string) []witch.Pair {
	match := func(acc *pairAcc) bool {
		return acc.tool == tool && (program == "" || acc.program == program)
	}
	n := 0
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for _, head := range sh.pairs {
			for acc := head; acc != nil; acc = acc.next {
				if match(acc) {
					n++
				}
			}
		}
		sh.mu.Unlock()
	}
	out := make([]witch.Pair, 0, n)
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for _, head := range sh.pairs {
			for acc := head; acc != nil; acc = acc.next {
				if !match(acc) {
					continue
				}
				out = append(out, witch.Pair{
					Src: acc.src, Dst: acc.dst, Chain: acc.chain,
					Waste: acc.waste, Use: acc.use,
					SrcLine: acc.srcLine, DstLine: acc.dstLine,
				})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return pairLess(&out[i], &out[j]) })
	return out
}

// pairLess is the canonical pair ranking: waste descending, then chain,
// source, destination ascending — the order a single profile ranks its
// own pairs, shared by the full sort and the top-n selection.
func pairLess(a, b *witch.Pair) bool {
	if a.Waste != b.Waste {
		return a.Waste > b.Waste
	}
	if a.Chain != b.Chain {
		return a.Chain < b.Chain
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// pairsForTop is pairsFor truncated to the n best-ranked pairs without
// sorting the rest: a bounded min-heap (worst-of-the-best at the root)
// admits each candidate in O(log n), so selecting 20 of 100k pairs does
// ~100k comparisons instead of a 100k-element sort. n <= 0 means no
// bound (plain pairsFor). The result is the exact prefix a full sort
// would produce.
func (a *Aggregator) pairsForTop(tool, program string, n int) []witch.Pair {
	if n <= 0 {
		return a.pairsFor(tool, program)
	}
	match := func(acc *pairAcc) bool {
		return acc.tool == tool && (program == "" || acc.program == program)
	}
	// heap[0] is the WORST retained pair; heapWorse orders the heap so a
	// candidate better than the root evicts it.
	heap := make([]witch.Pair, 0, n)
	heapWorse := func(i, j int) bool { return pairLess(&heap[j], &heap[i]) }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			w := i
			if l < len(heap) && heapWorse(l, w) {
				w = l
			}
			if r < len(heap) && heapWorse(r, w) {
				w = r
			}
			if w == i {
				return
			}
			heap[i], heap[w] = heap[w], heap[i]
			i = w
		}
	}
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !heapWorse(i, p) {
				return
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for _, head := range sh.pairs {
			for acc := head; acc != nil; acc = acc.next {
				if !match(acc) {
					continue
				}
				p := witch.Pair{
					Src: acc.src, Dst: acc.dst, Chain: acc.chain,
					Waste: acc.waste, Use: acc.use,
					SrcLine: acc.srcLine, DstLine: acc.dstLine,
				}
				if len(heap) < n {
					heap = append(heap, p)
					siftUp(len(heap) - 1)
				} else if pairLess(&p, &heap[0]) {
					heap[0] = p
					siftDown(0)
				}
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(heap, func(i, j int) bool { return pairLess(&heap[i], &heap[j]) })
	return heap
}

// SnapshotTop is Snapshot bounded to the n highest-ranked pairs — the
// /v1/top serving path, where n is the dashboard's page size and the
// pair population is the whole retained state. Identical to
// Snapshot(tool, program) with the pair list truncated to n; meta
// scalars still cover every matching pair.
func (a *Aggregator) SnapshotTop(tool, program string, n int) *witch.Profile {
	if n <= 0 {
		return a.Snapshot(tool, program)
	}
	mk, cnt := a.combinedMeta(tool, program)
	if cnt == 0 {
		return nil
	}
	progName := program
	if program == "" {
		progs := a.Programs(tool)
		if len(progs) == 1 {
			progName = progs[0]
		} else {
			progName = fmt.Sprintf("merged(%d programs)", len(progs))
		}
	}
	pairs := a.pairsForTop(tool, program, n)
	red := 0.0
	if mk.waste+mk.use > 0 {
		red = mk.waste / (mk.waste + mk.use)
	}
	return witch.NewProfile(witch.Profile{
		Program:    progName,
		Tool:       tool,
		Exhaustive: mk.exhaustive,
		Redundancy: red,
		Waste:      mk.waste,
		Use:        mk.use,
		WallTime:   time.Duration(mk.wallNanos),
		ToolBytes:  mk.toolBytes,
		Instrs:     mk.instrs,
		Loads:      mk.loads,
		Stores:     mk.stores,
		Stats:      mk.stats,
		Health:     mk.health,
	}, pairs)
}

// Tools lists the tools with merged data, sorted.
func (a *Aggregator) Tools() []string {
	a.metaMu.Lock()
	set := make(map[string]bool, len(a.metas))
	for k := range a.metas {
		set[k.tool] = true
	}
	a.metaMu.Unlock()
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Programs lists the programs with merged data for a tool, sorted.
func (a *Aggregator) Programs(tool string) []string {
	a.metaMu.Lock()
	set := make(map[string]bool)
	for k := range a.metas {
		if k.tool == tool {
			set[k.program] = true
		}
	}
	a.metaMu.Unlock()
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Profiles returns how many profiles have been merged in, across all
// tools and programs.
func (a *Aggregator) Profiles() uint64 {
	a.metaMu.Lock()
	defer a.metaMu.Unlock()
	var n uint64
	for _, m := range a.metas {
		n += m.profiles
	}
	return n
}

// PairCount returns the number of distinct merged pair streams held —
// the live-memory figure retention eviction is meant to bound.
func (a *Aggregator) PairCount() int {
	var n int
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		n += sh.count
		sh.mu.Unlock()
	}
	return n
}
