package agg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/witch"
)

// syntheticAgg builds a view holding n distinct pairs with colliding
// waste values (so tie-breaking paths are exercised).
func syntheticAgg(n int, seed int64) *View {
	rng := rand.New(rand.NewSource(seed))
	var a Partition
	const batch = 512
	for off := 0; off < n; off += batch {
		m := batch
		if off+m > n {
			m = n - off
		}
		pairs := make([]witch.Pair, 0, m)
		for i := 0; i < m; i++ {
			k := off + i
			pairs = append(pairs, witch.Pair{
				Src:   fmt.Sprintf("store_%06d", k),
				Dst:   fmt.Sprintf("load_%06d", k),
				Chain: fmt.Sprintf("s%06d->l%06d", k, k),
				// Few distinct waste values: heavy ties.
				Waste: float64(rng.Intn(50)),
				Use:   float64(rng.Intn(100)),
			})
		}
		a.Merge(witch.NewProfile(witch.Profile{
			Program: "synthetic", Tool: string(witch.DeadStores),
			Waste: 1, Use: 1,
		}, pairs))
	}
	return viewOf(a.State())
}

// TestPairsForTopMatchesFullSort: the bounded-heap selection must
// return the exact prefix of the fully sorted ranking, ties included.
func TestPairsForTopMatchesFullSort(t *testing.T) {
	for _, total := range []int{0, 1, 7, 100, 3000} {
		a := syntheticAgg(total, int64(total)+1)
		full := a.pairsForTop(string(witch.DeadStores), "synthetic", 0)
		if len(full) != total {
			t.Fatalf("pairsForTop(n=0) returned %d pairs, want %d", len(full), total)
		}
		if !sort.SliceIsSorted(full, func(i, j int) bool { return pairLess(&full[i], &full[j]) }) {
			t.Fatalf("pairsForTop(n=0) output not sorted (total=%d)", total)
		}
		for _, n := range []int{1, 2, 3, 10, 20, total - 1, total, total + 5} {
			if n <= 0 {
				continue
			}
			got := a.pairsForTop(string(witch.DeadStores), "synthetic", n)
			want := full
			if n < len(full) {
				want = full[:n]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pairsForTop(n=%d, total=%d) diverges from full sort prefix", n, total)
			}
		}
	}
}

// TestSnapshotTopMatchesSnapshot: the top-n profile must be the full
// snapshot with its pair list truncated — same meta, same JSON prefix.
func TestSnapshotTopMatchesSnapshot(t *testing.T) {
	a := syntheticAgg(500, 9)
	full := a.SnapshotTop(string(witch.DeadStores), "synthetic", 0)
	top := a.SnapshotTop(string(witch.DeadStores), "synthetic", 20)
	if full == nil || top == nil {
		t.Fatal("nil snapshot")
	}
	if got, want := top.TopPairs(0), full.TopPairs(20); !reflect.DeepEqual(got, want) {
		t.Fatalf("SnapshotTop pairs diverge from truncated Snapshot pairs")
	}
	if top.Waste != full.Waste || top.Use != full.Use || top.Redundancy != full.Redundancy {
		t.Fatalf("SnapshotTop meta diverges: waste %v/%v use %v/%v", top.Waste, full.Waste, top.Use, full.Use)
	}
	// n <= 0 and missing keys degrade exactly like Snapshot.
	if got := a.SnapshotTop(string(witch.DeadStores), "synthetic", 0); got == nil || len(got.TopPairs(0)) != 500 {
		t.Fatal("SnapshotTop(n<=0) should be the unbounded snapshot")
	}
	if a.SnapshotTop("no-such-tool", "", 20) != nil {
		t.Fatal("SnapshotTop of unknown tool should be nil")
	}
}
