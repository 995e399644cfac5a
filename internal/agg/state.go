package agg

import (
	"fmt"
	"sort"
	"strings"

	"repro/witch"
)

// State is the aggregator's exported snapshot codec: a flat, encodable
// image of every accumulator, used by internal/store to persist the
// retention ring and rollup. Loading a State rebuilds an aggregator
// whose every query answer is identical to the original's — the codec
// carries the raw sums, so no merge is re-run and no float is re-added
// in a different order.
//
// Order contract: Metas are strictly ascending by (Tool, Program) and
// Pairs strictly ascending by (Tool, Program, Src, Dst, Chain), byte-
// wise string order, no key twice. State produces this order, and
// Scope's binary search depends on it: a State from anywhere else (a
// decoded peer delta) must pass CheckOrder before it is scoped.
type State struct {
	Metas []MetaState
	Pairs []PairState
}

// MetaState is one (tool, program) scalar accumulator.
type MetaState struct {
	Tool, Program string
	Profiles      uint64
	Waste, Use    float64
	WallNanos     int64
	ToolBytes     uint64
	Instrs        uint64
	Loads         uint64
	Stores        uint64
	Exhaustive    bool
	Stats         witch.Stats
	Health        witch.Health
}

// PairState is one merged pair stream's accumulator.
type PairState struct {
	Tool, Program    string
	Src, Dst, Chain  string
	Waste, Use       float64
	SrcLine, DstLine int
}

// State snapshots the aggregator. Safe for concurrent use with Merge,
// though callers wanting an exact cut must quiesce writers (the store
// and witchd's snapshot barrier do). Output order is deterministic so
// identical aggregates encode identically.
func (a *Aggregator) State() *State {
	st := &State{}
	a.metaMu.Lock()
	for k, m := range a.metas {
		st.Metas = append(st.Metas, MetaState{
			Tool: k.tool, Program: k.program,
			Profiles: m.profiles, Waste: m.waste, Use: m.use,
			WallNanos: m.wallNanos, ToolBytes: m.toolBytes,
			Instrs: m.instrs, Loads: m.loads, Stores: m.stores,
			Exhaustive: m.exhaustive, Stats: m.stats, Health: m.health,
		})
	}
	a.metaMu.Unlock()
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for _, head := range sh.pairs {
			for acc := head; acc != nil; acc = acc.next {
				st.Pairs = append(st.Pairs, PairState{
					Tool: acc.tool, Program: acc.program,
					Src: acc.src, Dst: acc.dst, Chain: acc.chain,
					Waste: acc.waste, Use: acc.use,
					SrcLine: acc.srcLine, DstLine: acc.dstLine,
				})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(st.Metas, func(i, j int) bool { return metaLess(&st.Metas[i], &st.Metas[j]) })
	sort.Slice(st.Pairs, func(i, j int) bool { return pairStateLess(&st.Pairs[i], &st.Pairs[j]) })
	return st
}

func metaLess(x, y *MetaState) bool {
	if x.Tool != y.Tool {
		return x.Tool < y.Tool
	}
	return x.Program < y.Program
}

func pairStateLess(x, y *PairState) bool {
	switch {
	case x.Tool != y.Tool:
		return x.Tool < y.Tool
	case x.Program != y.Program:
		return x.Program < y.Program
	case x.Src != y.Src:
		return x.Src < y.Src
	case x.Dst != y.Dst:
		return x.Dst < y.Dst
	}
	return x.Chain < y.Chain
}

// CheckOrder reports the first row that breaks the State order
// contract, in one linear pass.
func (st *State) CheckOrder() error {
	for i := 1; i < len(st.Metas); i++ {
		if !metaLess(&st.Metas[i-1], &st.Metas[i]) {
			m := &st.Metas[i]
			return fmt.Errorf("agg: state meta %d (%q, %q) out of order", i, m.Tool, m.Program)
		}
	}
	for i := 1; i < len(st.Pairs); i++ {
		if !pairStateLess(&st.Pairs[i-1], &st.Pairs[i]) {
			p := &st.Pairs[i]
			return fmt.Errorf("agg: state pair %d (%q, %q, %q -> %q) out of order", i, p.Tool, p.Program, p.Src, p.Dst)
		}
	}
	return nil
}

// Scope returns the rows of st for tool, or for (tool, program) when
// program != "": sub-slices of st's own (capacity-clipped) arrays,
// found by binary search under the order contract. Folding a scope
// into an aggregator adds exactly the floats, in the same order, that
// folding st adds to the rows the scope keeps.
func (st *State) Scope(tool, program string) State {
	ml, mh := span(len(st.Metas), func(i int) (string, string) {
		return st.Metas[i].Tool, st.Metas[i].Program
	}, tool, program)
	pl, ph := span(len(st.Pairs), func(i int) (string, string) {
		return st.Pairs[i].Tool, st.Pairs[i].Program
	}, tool, program)
	return State{Metas: st.Metas[ml:mh:mh], Pairs: st.Pairs[pl:ph:ph]}
}

// span is the [lo, hi) run of n ordered rows whose key matches tool,
// and program too unless it is "".
func span(n int, key func(i int) (tool, program string), tool, program string) (lo, hi int) {
	cmp := func(i int) int {
		t, p := key(i)
		if c := strings.Compare(t, tool); c != 0 || program == "" {
			return c
		}
		return strings.Compare(p, program)
	}
	lo = sort.Search(n, func(i int) bool { return cmp(i) >= 0 })
	hi = lo + sort.Search(n-lo, func(i int) bool { return cmp(lo+i) > 0 })
	return lo, hi
}

// MergeState folds a snapshot image into an existing aggregator —
// the cluster query plane's shard-merge entry point. A coordinator
// answers a fleet query by folding every peer's exported State into
// its own local view with the exact rules Merge/MergeFrom use:
// waste/use and counters sum, Stats sum (MaxBlindSpot is a max),
// Health flags OR. Safe for concurrent use with Merge on a.
func (a *Aggregator) MergeState(st *State) {
	for i := range st.Metas {
		m := &st.Metas[i]
		a.mergeMeta(metaKey{m.Tool, m.Program}, meta{
			profiles: m.Profiles, waste: m.Waste, use: m.Use,
			wallNanos: m.WallNanos, toolBytes: m.ToolBytes,
			instrs: m.Instrs, loads: m.Loads, stores: m.Stores,
			exhaustive: m.Exhaustive, stats: m.Stats, health: m.Health,
		})
	}
	for i := range st.Pairs {
		p := &st.Pairs[i]
		h := hashKey(p.Tool, p.Program, p.Src, p.Dst, p.Chain)
		sh := &a.shards[h&(numShards-1)]
		sh.mu.Lock()
		acc := sh.find(h, p.Tool, p.Program, p.Src, p.Dst, p.Chain)
		if acc == nil {
			acc = &pairAcc{
				pairKey: pairKey{p.Tool, p.Program, p.Src, p.Dst, p.Chain},
				hash:    h,
				srcLine: p.SrcLine, dstLine: p.DstLine,
			}
			sh.insert(acc)
		}
		acc.waste += p.Waste
		acc.use += p.Use
		sh.mu.Unlock()
	}
}

// FromState rebuilds an aggregator from a snapshot image, pre-sizing
// the shard maps from the known pair count.
func FromState(st *State) *Aggregator {
	a := NewSized(len(st.Pairs))
	for _, m := range st.Metas {
		a.metas[metaKey{m.Tool, m.Program}] = &meta{
			profiles: m.Profiles, waste: m.Waste, use: m.Use,
			wallNanos: m.WallNanos, toolBytes: m.ToolBytes,
			instrs: m.Instrs, loads: m.Loads, stores: m.Stores,
			exhaustive: m.Exhaustive, stats: m.Stats, health: m.Health,
		}
	}
	for _, p := range st.Pairs {
		h := hashKey(p.Tool, p.Program, p.Src, p.Dst, p.Chain)
		a.shards[h&(numShards-1)].insert(&pairAcc{
			pairKey: pairKey{p.Tool, p.Program, p.Src, p.Dst, p.Chain},
			hash:    h,
			waste:   p.Waste, use: p.Use,
			srcLine: p.SrcLine, dstLine: p.DstLine,
		})
	}
	return a
}
