package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/witch"
)

// refStore is the addition-order reference: it keeps every sum as a
// plain float64 that starts from +0 and adds, per (bucket, partition),
// each profile's rows in ingest order; an evicted bucket's sums are
// added into the rollup's, and an export adds, per partition, the
// rollup's sums and then each live bucket's in ring-slot order — the
// order the agg package documents, with none of its machinery.
type refStore struct {
	window  time.Duration
	ring    []*refBucket
	rollup  map[string]map[string]float64
	buckets int
}

type refBucket struct {
	start time.Time
	parts map[string]map[string]float64
}

func addSums(dst map[string]float64, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

func (r *refStore) ingest(id string, p *witch.Profile, now time.Time) {
	start := now.Truncate(r.window)
	slot := int((start.UnixNano() / int64(r.window)) % int64(r.buckets))
	if b := r.ring[slot]; b == nil || !b.start.Equal(start) {
		if b != nil {
			for id, sums := range b.parts {
				if r.rollup[id] == nil {
					r.rollup[id] = map[string]float64{}
				}
				addSums(r.rollup[id], sums)
			}
		}
		r.ring[slot] = &refBucket{start: start, parts: map[string]map[string]float64{}}
	}
	sums := r.ring[slot].parts[id]
	if sums == nil {
		sums = map[string]float64{}
		r.ring[slot].parts[id] = sums
	}
	sums["meta|"+p.Tool+"|"+p.Program+"|w"] += p.Waste
	sums["meta|"+p.Tool+"|"+p.Program+"|u"] += p.Use
	for _, pr := range p.TopPairs(0) {
		k := "pair|" + p.Tool + "|" + p.Program + "|" + pr.Src + "|" + pr.Dst + "|" + pr.Chain
		sums[k+"|w"] += pr.Waste
		sums[k+"|u"] += pr.Use
	}
}

func (r *refStore) export(window time.Duration, now time.Time) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	part := func(id string) map[string]float64 {
		if out[id] == nil {
			out[id] = map[string]float64{}
		}
		return out[id]
	}
	if window <= 0 {
		for id, sums := range r.rollup {
			addSums(part(id), sums)
		}
	}
	for _, b := range r.ring {
		if b == nil || (window > 0 && !b.start.Add(r.window).After(now.Add(-window))) {
			continue
		}
		for id, sums := range b.parts {
			addSums(part(id), sums)
		}
	}
	return out
}

// stateSums flattens a State into refStore's keys.
func stateSums(st *agg.State) map[string]float64 {
	out := map[string]float64{}
	for _, m := range st.Metas {
		out["meta|"+m.Tool+"|"+m.Program+"|w"] = m.Waste
		out["meta|"+m.Tool+"|"+m.Program+"|u"] = m.Use
	}
	for _, p := range st.Pairs {
		k := "pair|" + p.Tool + "|" + p.Program + "|" + p.Src + "|" + p.Dst + "|" + p.Chain
		out[k+"|w"] = p.Waste
		out[k+"|u"] = p.Use
	}
	return out
}

// orderProfile draws a profile with non-whole metrics spread over six
// decades, so any change in the order of additions changes low bits.
// Pair keys come from a small vocabulary and may repeat within one
// profile; now and then a profile is large enough to make its
// partition compact inside Merge.
func orderProfile(rng *rand.Rand) *witch.Profile {
	val := func() float64 { return (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(6)-3)) }
	n := 1 + rng.Intn(6)
	if rng.Intn(20) == 0 {
		n = 300
	}
	pairs := make([]witch.Pair, n)
	for i := range pairs {
		k := rng.Intn(40)
		pairs[i] = witch.Pair{
			Src: fmt.Sprintf("s%d", k%7), Dst: fmt.Sprintf("d%d", k), Chain: fmt.Sprintf("c%d", k%3),
			Waste: val(), Use: val(), SrcLine: k,
		}
	}
	return witch.NewProfile(witch.Profile{
		Tool: []string{"Dead", "Silent"}[rng.Intn(2)], Program: fmt.Sprintf("prog%d", rng.Intn(3)),
		Waste: val(), Use: val(),
	}, pairs)
}

// TestAdditionOrderMatchesReference: over seeded random interleavings
// of keyed and unkeyed ingest, exports, bucket eviction into the
// rollup, Snapshot/Restore and PartitionImage/ReplacePartition, every
// export equals the reference's float for float, bit for bit. It pins
// the addition order the store's merges promise, not just the sums.
func TestAdditionOrderMatchesReference(t *testing.T) {
	ids := []string{"", "p0", "p1", "p2"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		cfg := Config{Window: time.Minute, Buckets: 4, Now: clk.now, NoCache: seed%2 == 0}
		s := New(cfg)
		ref := &refStore{window: cfg.Window, buckets: cfg.Buckets, ring: make([]*refBucket, cfg.Buckets), rollup: map[string]map[string]float64{}}
		for op := 0; op < 600; op++ {
			switch k := rng.Intn(100); {
			case k < 70:
				id, p := ids[rng.Intn(len(ids))], orderProfile(rng)
				s.IngestKeyedAt(id, p, clk.now())
				ref.ingest(id, p, clk.now())
			case k < 80:
				clk.advance(time.Duration(rng.Intn(90)) * time.Second)
			case k < 83:
				var buf bytes.Buffer
				if err := s.Snapshot(&buf, 0, nil); err != nil {
					t.Fatal(err)
				}
				s = New(cfg)
				if _, _, err := s.Restore(&buf); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			case k < 86:
				id := ids[rng.Intn(len(ids))]
				s.ReplacePartition(id, s.PartitionImage(id))
			default:
				window := []time.Duration{0, 0, 90 * time.Second, 3 * time.Minute}[rng.Intn(4)]
				want := ref.export(window, clk.now())
				got := s.Export(window).Parts
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d window %v: %d partitions, reference %d", seed, op, window, len(got), len(want))
				}
				for id, st := range got {
					sums := stateSums(st)
					if len(sums) != len(want[id]) {
						t.Fatalf("seed %d op %d partition %q: %d sums, reference %d", seed, op, id, len(sums), len(want[id]))
					}
					for key, v := range want[id] {
						if math.Float64bits(sums[key]) != math.Float64bits(v) {
							t.Fatalf("seed %d op %d partition %q %s = %v, reference %v", seed, op, id, key, sums[key], v)
						}
					}
				}
			}
		}
	}
}
