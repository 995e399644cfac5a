package daemon

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/store"
	"repro/witch"
)

// scopeTools share a prefix, so a scope that matched on prefix would
// leak DeadCraft's rows into Dead's view.
var (
	scopeTools    = []string{"Dead", "DeadCraft", "Silent"}
	scopePrograms = []string{"gcc", "gcc2", "mcf"}
)

// randomPartition is one partition's State: a few profiles of random
// tools and programs with non-whole metrics over a small pair
// vocabulary, so partitions overlap in keys and the fold really sums.
func randomPartition(rng *rand.Rand) *agg.State {
	var a agg.Partition
	for k := 1 + rng.Intn(4); k > 0; k-- {
		var pairs []witch.Pair
		for n := 1 + rng.Intn(6); n > 0; n-- {
			i, j := rng.Intn(5), rng.Intn(3)
			pairs = append(pairs, witch.Pair{
				Src:   fmt.Sprintf("src.c:%d", i),
				Dst:   fmt.Sprintf("dst.c:%d", j),
				Chain: fmt.Sprintf("main -> f%d -> g%d", i, j),
				Waste: rng.Float64() * 100, Use: rng.Float64() * 100,
				SrcLine: i + 1, DstLine: j + 1,
			})
		}
		a.Merge(witch.NewProfile(witch.Profile{
			Program:  scopePrograms[rng.Intn(len(scopePrograms))],
			Tool:     scopeTools[rng.Intn(len(scopeTools))],
			Waste:    rng.Float64() * 1e3,
			Use:      rng.Float64() * 1e3,
			WallTime: time.Duration(rng.Intn(1e6)),
			Instrs:   uint64(rng.Intn(1e6)),
		}, pairs))
	}
	return a.State()
}

// randomGather builds a query's gathered inputs over the exporters
// peers: each pusher partition held by a random subset of them (copies
// differ, as diverged replicas do), random unkeyed partitions, random
// hinters, and sometimes an unreachable exporter.
func randomGather(rng *rand.Rand, peers []string) gathered {
	g := gathered{exporters: peers, exports: map[string]*store.Export{}, hinters: map[string]map[string]bool{}}
	for _, peer := range peers {
		if rng.Intn(6) == 0 {
			continue // unreachable
		}
		exp := &store.Export{Parts: map[string]*agg.State{}}
		if rng.Intn(2) == 0 {
			exp.Parts[""] = randomPartition(rng)
		}
		g.exports[peer] = exp
	}
	for p := 0; p < 8; p++ {
		id := fmt.Sprintf("pusher-%d", p)
		for peer, exp := range g.exports {
			if rng.Intn(2) == 0 {
				exp.Parts[id] = randomPartition(rng)
				if rng.Intn(4) == 0 {
					if g.hinters[id] == nil {
						g.hinters[id] = map[string]bool{}
					}
					g.hinters[id][peer] = true
				}
			}
		}
	}
	return g
}

// TestMaterializeScopedMatchesUnscoped: materialize folds only the
// query's rows of each State; every /v1/top and /v1/profile body must
// equal the one rendered from a fold of the same States whole. The
// gathers are fleet reads over a 3-peer ring and local reads of one
// exporter on a node with no ring, which fold through the same path.
func TestMaterializeScopedMatchesUnscoped(t *testing.T) {
	peers := []string{"http://node-a:1", "http://node-b:1", "http://node-c:1"}
	r, err := cluster.New(cluster.Config{Self: peers[0], Peers: peers, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	tools := append([]string{"Absent", "Dea"}, scopeTools...)
	programs := append([]string{"", "absent"}, scopePrograms...)
	for _, c := range []struct {
		name      string
		s         *Server
		exporters []string
		minFound  int
	}{
		// 25 seeds x 3 present tools x 4 present program scopes, less the
		// (tool, program) groups a seed happens not to hold.
		{"fleet", &Server{cl: r}, peers, 200},
		// One exporter holds less, and is unreachable for some seeds.
		{"local", &Server{}, []string{""}, 150},
	} {
		s, found := c.s, 0
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := randomGather(rng, c.exporters)
			whole := new(agg.View)
			for _, st := range s.foldOrder(g) {
				whole.Fold(*st)
			}
			for _, g.tool = range tools {
				for _, g.program = range programs {
					scoped := s.materialize(g)
					for _, n := range []int{1, 20, 0} {
						want, werr := topBody(whole, g, n)
						got, gerr := topBody(scoped, g, n)
						if !bytes.Equal(got, want) || gerr != werr {
							t.Fatalf("%s seed %d top(%q, %q, n=%d):\nscoped %s (%v)\nwhole  %s (%v)",
								c.name, seed, g.tool, g.program, n, got, gerr, want, werr)
						}
					}
					want, werr := profileBody(whole, g)
					got, gerr := profileBody(scoped, g)
					if !bytes.Equal(got, want) || gerr != werr {
						t.Fatalf("%s seed %d profile(%q, %q):\nscoped %s (%v)\nwhole  %s (%v)",
							c.name, seed, g.tool, g.program, got, gerr, want, werr)
					}
					if werr == nil {
						found++
					}
				}
			}
		}
		if found < c.minFound {
			t.Fatalf("%s: only %d of the compared views held any profile", c.name, found)
		}
	}
}
