package agg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/witch"
)

// View is one read's fold of States: a single goroutine adds each
// State's rows, in Fold order, into rows found through one plain map
// per row kind, then renders profiles from them. Rows keep the order
// they were first seen in, so a render is a function of the folded
// States alone. The zero value is an empty view; a View is not safe for
// concurrent use.
type View struct {
	metas  []MetaState
	pairs  []PairState
	metaAt map[metaKey]int
	pairAt map[pairKey]int
}

type metaKey struct{ tool, program string }

// pairKey identifies one merged pair stream: the tool that found it, the
// program it was found in, and the full context-pair signature (leaf
// locations plus the synthetic chain, i.e. the complete ⟨C_watch,
// C_trap⟩ calling contexts of §4.2 — two pairs with the same leaves but
// different chains stay distinct, exactly as they do in one profile).
type pairKey struct{ tool, program, src, dst, chain string }

// Fold adds each State's rows into the view, in argument order, under
// the package's addition order contract. The first Fold into an empty
// view sizes it for the rows it will likely hold: per (tool, program),
// as many pairs as the largest State holds. That is exact when each
// group comes from one State (a pusher per program) and no larger than
// the union when States overlap (replicas, pushers sharing programs).
func (v *View) Fold(sts ...State) {
	if v.metaAt == nil {
		groups := make(map[metaKey]int)
		for _, st := range sts {
			for i := range st.Metas {
				m := &st.Metas[i]
				k := metaKey{m.Tool, m.Program}
				groups[k] = max(groups[k], len(st.Scope(m.Tool, m.Program).Pairs))
			}
		}
		pairs := 0
		for _, n := range groups {
			pairs += n
		}
		v.metas, v.metaAt = make([]MetaState, 0, len(groups)), make(map[metaKey]int, len(groups))
		v.pairs, v.pairAt = make([]PairState, 0, pairs), make(map[pairKey]int, pairs)
	}
	for i := range sts {
		v.fold(&sts[i])
	}
}

func (v *View) fold(st *State) {
	for i := range st.Metas {
		m := &st.Metas[i]
		k := metaKey{m.Tool, m.Program}
		if j, ok := v.metaAt[k]; ok {
			addMeta(&v.metas[j], m)
			continue
		}
		v.metaAt[k] = len(v.metas)
		v.metas = append(v.metas, firstMeta(m))
	}
	for i := range st.Pairs {
		p := &st.Pairs[i]
		k := pairKey{p.Tool, p.Program, p.Src, p.Dst, p.Chain}
		if j, ok := v.pairAt[k]; ok {
			addPair(&v.pairs[j], p)
			continue
		}
		v.pairAt[k] = len(v.pairs)
		v.pairs = append(v.pairs, firstPair(p))
	}
}

// SnapshotTop re-materializes the merged profile for one tool,
// optionally filtered to one program (program == "" merges across
// programs), keeping the n best-ranked pairs (n <= 0 keeps all). Pairs
// are ranked exactly as a single profile ranks them — waste
// descending, chain ascending on ties — so a single-source snapshot
// round-trips bit-compatibly through WriteJSON/witchdiff; meta scalars
// cover every matching pair. Returns nil if nothing matching has been
// folded.
func (v *View) SnapshotTop(tool, program string, n int) *witch.Profile {
	mk := v.combinedMeta(tool, program)
	if mk.Profiles == 0 {
		return nil
	}
	progName := program
	if program == "" {
		progs := v.Programs(tool)
		if len(progs) == 1 {
			progName = progs[0]
		} else {
			progName = fmt.Sprintf("merged(%d programs)", len(progs))
		}
	}
	red := 0.0
	if mk.Waste+mk.Use > 0 {
		red = mk.Waste / (mk.Waste + mk.Use)
	}
	return witch.NewProfile(witch.Profile{
		Program:    progName,
		Tool:       tool,
		Exhaustive: mk.Exhaustive,
		Redundancy: red,
		Waste:      mk.Waste,
		Use:        mk.Use,
		WallTime:   time.Duration(mk.WallNanos),
		ToolBytes:  mk.ToolBytes,
		Instrs:     mk.Instrs,
		Loads:      mk.Loads,
		Stores:     mk.Stores,
		Stats:      mk.Stats,
		Health:     mk.Health,
	}, v.pairsForTop(tool, program, n))
}

// combinedMeta folds the matching (tool, program) rows from zero, in
// program order: float sums depend on the order of their additions.
func (v *View) combinedMeta(tool, program string) MetaState {
	var buf [16]*MetaState
	ms := buf[:0]
	for i := range v.metas {
		if m := &v.metas[i]; m.Tool == tool && (program == "" || m.Program == program) {
			ms = append(ms, m)
		}
	}
	slices.SortFunc(ms, func(x, y *MetaState) int { return strings.Compare(x.Program, y.Program) })
	var out MetaState
	for _, m := range ms {
		addMeta(&out, m)
	}
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

// pairsForTop collects and ranks the pairs matching a tool and
// optional program filter, truncated to the n best (n <= 0: all of
// them, fully sorted). A bounded n selects through a min-heap
// (worst-of-the-best at the root) that admits each candidate in
// O(log n), so selecting 20 of 100k pairs does ~100k comparisons
// instead of a 100k-element sort; the result is the exact prefix a
// full sort would produce.
func (v *View) pairsForTop(tool, program string, n int) []witch.Pair {
	match := func(ps *PairState) bool {
		return ps.Tool == tool && (program == "" || ps.Program == program)
	}
	size := n
	if n <= 0 {
		size = 0
		for i := range v.pairs {
			if match(&v.pairs[i]) {
				size++
			}
		}
	}
	heap := make([]witch.Pair, 0, size)
	// heap[0] is the WORST retained pair; heapWorse orders the heap so a
	// candidate better than the root evicts it.
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
	for i := range v.pairs {
		ps := &v.pairs[i]
		if !match(ps) {
			continue
		}
		p := witch.Pair{
			Src: ps.Src, Dst: ps.Dst, Chain: ps.Chain,
			Waste: ps.Waste, Use: ps.Use,
			SrcLine: ps.SrcLine, DstLine: ps.DstLine,
		}
		switch {
		case n <= 0:
			heap = append(heap, p)
		case len(heap) < n:
			heap = append(heap, p)
			siftUp(len(heap) - 1)
		case pairLess(&p, &heap[0]):
			heap[0] = p
			siftDown(0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return pairLess(&heap[i], &heap[j]) })
	return heap
}

// Programs lists the programs with folded data for a tool, sorted.
func (v *View) Programs(tool string) []string {
	out := make([]string, 0, len(v.metas))
	for i := range v.metas {
		if v.metas[i].Tool == tool {
			out = append(out, v.metas[i].Program)
		}
	}
	sort.Strings(out)
	return out
}
