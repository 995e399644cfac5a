package agg

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// scopeState builds an ordered State over tools that share a prefix
// (Dead, DeadCraft) and programs a, b, c, with overlapping pair keys.
func scopeState() *State {
	var a Partition
	for _, tool := range []string{"Dead", "DeadCraft", "Load"} {
		for _, prog := range []string{"a", "b", "c"} {
			a.Merge(synth(tool, prog, 1.5, 4))
		}
	}
	return a.State()
}

// filterState is Scope's linear reference.
func filterState(st *State, tool, program string) State {
	var out State
	match := func(t, p string) bool { return t == tool && (program == "" || p == program) }
	for _, m := range st.Metas {
		if match(m.Tool, m.Program) {
			out.Metas = append(out.Metas, m)
		}
	}
	for _, p := range st.Pairs {
		if match(p.Tool, p.Program) {
			out.Pairs = append(out.Pairs, p)
		}
	}
	return out
}

func TestStateScope(t *testing.T) {
	full := scopeState()
	cases := []struct {
		name          string
		st            *State
		tool, program string
		metas, pairs  int
	}{
		{"empty state", &State{}, "Dead", "", 0, 0},
		{"empty state, program", &State{}, "Dead", "a", 0, 0},
		{"first tool, not its prefix sibling", full, "Dead", "", 3, 12},
		{"prefix sibling", full, "DeadCraft", "", 3, 12},
		{"first row", full, "Dead", "a", 1, 4},
		{"last row", full, "Load", "c", 1, 4},
		{"middle", full, "DeadCraft", "b", 1, 4},
		{"missing tool before all", full, "A", "", 0, 0},
		{"missing tool between", full, "DeadCraftX", "", 0, 0},
		{"missing tool after all", full, "Zed", "a", 0, 0},
		{"missing prefix of a tool", full, "Dea", "", 0, 0},
		{"missing program", full, "Dead", "bb", 0, 0},
		{"missing program after all", full, "Load", "z", 0, 0},
	}
	for _, c := range cases {
		got := c.st.Scope(c.tool, c.program)
		want := filterState(c.st, c.tool, c.program)
		if len(got.Metas) != c.metas || len(got.Pairs) != c.pairs {
			t.Errorf("%s: Scope(%q, %q) has %d metas, %d pairs; want %d, %d",
				c.name, c.tool, c.program, len(got.Metas), len(got.Pairs), c.metas, c.pairs)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: Scope(%q, %q) = %v, want the linear filter's %v", c.name, c.tool, c.program, got, want)
		}
		if cap(got.Metas) != len(got.Metas) || cap(got.Pairs) != len(got.Pairs) {
			t.Errorf("%s: scope capacity not clipped: an append would overwrite the next rows", c.name)
		}
	}
}

func TestStateCheckOrder(t *testing.T) {
	if err := scopeState().CheckOrder(); err != nil {
		t.Fatalf("Partition.State output rejected: %v", err)
	}
	if err := (&State{}).CheckOrder(); err != nil {
		t.Fatalf("empty state rejected: %v", err)
	}
	breakers := map[string]func(st *State){
		"swapped pairs":  func(st *State) { st.Pairs[3], st.Pairs[4] = st.Pairs[4], st.Pairs[3] },
		"duplicate pair": func(st *State) { st.Pairs[5] = st.Pairs[4] },
		"swapped metas":  func(st *State) { st.Metas[0], st.Metas[8] = st.Metas[8], st.Metas[0] },
		"duplicate meta": func(st *State) { st.Metas[2] = st.Metas[1] },
		"last pair low":  func(st *State) { st.Pairs[len(st.Pairs)-1].Tool = "A" },
	}
	for name, breakIt := range breakers {
		st := scopeState()
		breakIt(st)
		if err := st.CheckOrder(); err == nil {
			t.Errorf("%s: CheckOrder accepted a state out of order", name)
		}
	}
}

// TestSnapshotTopDeterministic: the scalar totals of a multi-program
// snapshot are float sums, so they must be folded in a fixed order for
// the rendered body to be a function of the state.
func TestSnapshotTopDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var part Partition
	for i := 0; i < 12; i++ {
		p := synth("Dead", fmt.Sprintf("prog%02d", i), 1, 3)
		p.Waste = rng.Float64() * 1e3
		p.Use = rng.Float64() * 1e3
		part.Merge(p)
	}
	a := viewOf(part.State())
	render := func() []byte {
		var buf bytes.Buffer
		if err := a.SnapshotTop("Dead", "", 5).WriteJSONCompact(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := render()
	for i := 1; i < 200; i++ {
		if got := render(); !bytes.Equal(got, first) {
			t.Fatalf("render %d differs from the first:\n%s\n%s", i, got, first)
		}
	}
}
