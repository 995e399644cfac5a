package daemon

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/store"
	"repro/witch"
)

// localReadBody encodes one program's batch of n distinct pairs with
// collision-heavy waste values, keys shared with every other batch of
// the same program.
func localReadBody(b *testing.B, program string, n int, seed int64) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]witch.Pair, n)
	for i := range pairs {
		pairs[i] = witch.Pair{
			Src:   fmt.Sprintf("%s_store_%06d", program, i),
			Dst:   fmt.Sprintf("%s_load_%06d", program, i),
			Chain: fmt.Sprintf("%s:s%06d->l%06d", program, i, i),
			Waste: float64(rng.Intn(200)) + 0.25, Use: float64(rng.Intn(200)) + 0.5,
		}
	}
	var buf bytes.Buffer
	if err := witch.NewProfile(witch.Profile{
		Program: program, Tool: string(witch.DeadStores), Waste: 1.5, Use: 1.25,
	}, pairs).WriteJSONCompact(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkLocalRead is one dashboard refresh against a memory-only
// node that keeps ingesting: 12 programs x 500 pairs seeded, then per
// op one 100-pair batch and one /v1/top?n=20, which misses the
// rendered cache and rebuilds the export's changed partition. unkeyed
// holds everything in the anonymous partition, so each read rebuilds
// all 6000 pairs; keyed gives each program its own pusher partition,
// so a read rebuilds one of 12.
func BenchmarkLocalRead(b *testing.B) {
	const programs, seedPairs, tricklePairs = 12, 500, 100
	for _, keyed := range []bool{false, true} {
		name := "unkeyed"
		if keyed {
			name = "keyed"
		}
		b.Run(name, func(b *testing.B) {
			epoch := time.Unix(1700000000, 0)
			now := func() time.Time { return epoch }
			node, err := OpenNode(NodeConfig{Store: store.Config{Now: now}, Server: Config{Now: now}})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Kill()
			h := node.Handler()
			seqs := make([]uint64, programs)
			post := func(prog int, body []byte) {
				req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				if keyed {
					seqs[prog]++
					req.Header.Set(witch.PusherIDHeader, fmt.Sprintf("pusher-%02d", prog))
					req.Header.Set(witch.PusherSeqHeader, fmt.Sprint(seqs[prog]))
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("ingest: %d %s", rec.Code, rec.Body)
				}
			}
			trickle := make([][]byte, programs)
			for i := 0; i < programs; i++ {
				prog := fmt.Sprintf("prog-%02d", i)
				post(i, localReadBody(b, prog, seedPairs, int64(i)))
				trickle[i] = localReadBody(b, prog, tricklePairs, int64(100+i))
			}
			top := httptest.NewRequest(http.MethodGet, "/v1/top?tool="+string(witch.DeadStores)+"&n=20", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(i%programs, trickle[i%programs])
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, top)
				if rec.Code != http.StatusOK {
					b.Fatalf("top: %d %s", rec.Code, rec.Body)
				}
			}
		})
	}
}
