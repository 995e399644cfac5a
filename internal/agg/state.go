package agg

import (
	"fmt"
	"sort"
	"strings"

	"repro/witch"
)

// State is the one aggregate shape: a flat, encodable, sorted image of
// every accumulator. A Partition's base is one, exports and delta legs
// ship them, snapshots and partition images persist them, and a View
// folds them for a read. A State carries raw sums, so decoding one
// re-adds no float.
//
// Order contract: Metas are strictly ascending by (Tool, Program) and
// Pairs strictly ascending by (Tool, Program, Src, Dst, Chain), byte-
// wise string order, no key twice. Partition and Merge produce this
// order, and Merge's linear pass and Scope's binary search depend on
// it. Decoder.State checks it (CheckOrder), so every State decoded
// from a peer delta, partition image or snapshot keeps it too.
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

func cmpMeta(x, y *MetaState) int {
	if c := strings.Compare(x.Tool, y.Tool); c != 0 {
		return c
	}
	return strings.Compare(x.Program, y.Program)
}

func cmpPair(x, y *PairState) int {
	switch {
	case x.Tool != y.Tool:
		return strings.Compare(x.Tool, y.Tool)
	case x.Program != y.Program:
		return strings.Compare(x.Program, y.Program)
	case x.Src != y.Src:
		return strings.Compare(x.Src, y.Src)
	case x.Dst != y.Dst:
		return strings.Compare(x.Dst, y.Dst)
	}
	return strings.Compare(x.Chain, y.Chain)
}

// CheckOrder reports the first row that breaks the State order
// contract, in one linear pass.
func (st *State) CheckOrder() error {
	for i := 1; i < len(st.Metas); i++ {
		if cmpMeta(&st.Metas[i-1], &st.Metas[i]) >= 0 {
			m := &st.Metas[i]
			return fmt.Errorf("agg: state meta %d (%q, %q) out of order", i, m.Tool, m.Program)
		}
	}
	for i := 1; i < len(st.Pairs); i++ {
		if cmpPair(&st.Pairs[i-1], &st.Pairs[i]) >= 0 {
			p := &st.Pairs[i]
			return fmt.Errorf("agg: state pair %d (%q, %q, %q -> %q) out of order", i, p.Tool, p.Program, p.Src, p.Dst)
		}
	}
	return nil
}

// Scope returns the rows of st for tool, or for (tool, program) when
// program != "": sub-slices of st's own (capacity-clipped) arrays,
// found by binary search under the order contract. Folding a scope
// into a View adds exactly the floats, in the same order, that
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

// Merge returns the union of two ordered States: a row both hold is
// b's contribution added into a's, pair floats after a's, meta fields
// by addMeta; a row only b holds starts as a first contribution. A
// left fold of Merge thus adds each row's contributions in fold order.
// Neither input is modified. With a nil operand the other is returned
// as it stands: a pair sum that started from +0 is never -0, so adding
// it to +0 changes no bit.
func Merge(a, b *State) *State {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return &State{
		Metas: mergeRows(a.Metas, b.Metas, nil, cmpMeta, firstMeta, addMeta),
		Pairs: mergeRows(a.Pairs, b.Pairs, nil, cmpPair, firstPair, addPair),
	}
}
