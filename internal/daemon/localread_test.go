package daemon

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/store"
	"repro/witch"
)

// heldProfiles counts the profiles st holds, all-time: Store.Health
// folds them from the same Export every read of the node folds.
func heldProfiles(st *store.Store) uint64 {
	_, n := st.Health()
	return n
}

// TestLocalReadDeterministic: a single node answers one question with
// one body. Twelve pushers each push batches of one (tool, program)
// whose waste and use span six decades of non-whole values, so every
// float sum depends on the order of its additions. Repeated /v1/top
// and /v1/profile reads on a node with every cache off must agree byte
// for byte, and a cached node fed the same per-pusher batches in
// another interleaving must answer the same bytes.
func TestLocalReadDeterministic(t *testing.T) {
	const pushers, batches, reads = 12, 3, 40
	clock := time.Unix(1700000000, 0)
	now := func() time.Time { return clock }
	rng := rand.New(rand.NewSource(24))
	frac := func() float64 { return rng.Float64() * math.Pow(10, float64(rng.Intn(6)-3)) }
	bodies := make([][][]byte, pushers)
	for i := range bodies {
		for b := 0; b < batches; b++ {
			var pairs []witch.Pair
			var waste, use float64
			for k := 0; k < 4; k++ {
				p := witch.Pair{
					Src: fmt.Sprintf("s.c:%d", k), Dst: fmt.Sprintf("d.c:%d", k),
					Chain: fmt.Sprintf("main -> f%d", k),
					Waste: frac(), Use: frac(), SrcLine: k + 1, DstLine: k + 1,
				}
				waste, use = waste+p.Waste, use+p.Use
				pairs = append(pairs, p)
			}
			var buf bytes.Buffer
			prof := witch.NewProfile(witch.Profile{Program: "prog", Tool: "dead", Waste: waste, Use: use}, pairs)
			if err := prof.WriteJSONCompact(&buf); err != nil {
				t.Fatal(err)
			}
			bodies[i] = append(bodies[i], buf.Bytes())
		}
	}
	open := func(noCache bool) http.Handler {
		node, err := OpenNode(NodeConfig{
			Store:  store.Config{Now: now, NoCache: noCache},
			Server: Config{Now: now, NoQueryCache: noCache},
		})
		if err != nil {
			t.Fatal(err)
		}
		return node.Handler()
	}
	push := func(h http.Handler, i, b int) {
		if rec := postBatch(h, "/v1/ingest", bodies[i][b], fmt.Sprintf("pusher-%02d", i), uint64(b+1)); rec.Code != http.StatusOK {
			t.Fatalf("pusher %d batch %d: HTTP %d %s", i, b, rec.Code, rec.Body)
		}
	}
	// The oracle takes batch b from every pusher before batch b+1; the
	// twin takes each pusher whole, last pusher first.
	oracle, twin := open(true), open(false)
	for b := 0; b < batches; b++ {
		for i := 0; i < pushers; i++ {
			push(oracle, i, b)
		}
	}
	for i := pushers - 1; i >= 0; i-- {
		for b := 0; b < batches; b++ {
			push(twin, i, b)
		}
	}
	get := func(h http.Handler, path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for _, path := range []string{"/v1/top?tool=dead&n=3", "/v1/profile?tool=dead", "/v1/profile?tool=dead&program=prog"} {
		want := get(oracle, path)
		for k := 1; k < reads; k++ {
			if got := get(oracle, path); !bytes.Equal(got, want) {
				t.Fatalf("GET %s read %d differs from read 0:\n%s\n%s", path, k, got, want)
			}
		}
		if got := get(twin, path); !bytes.Equal(got, want) {
			t.Fatalf("GET %s: the twin fed another interleaving answers\n%s\nthe oracle\n%s", path, got, want)
		}
	}
}
