package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"repro/internal/daemon"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/witch"
)

// Query is the query-fast-path benchmark and correctness gate, in two
// phases.
//
// Phase 1 (single node): a daemon seeded with a large aggregate state
// (>=100k distinct pairs across many programs) answers repeated
// /v1/top queries. The cached daemon (store memoization plus the
// rendered-response cache) is raced against an uncached oracle — the
// same daemon with both caches disabled, fed the identical batches —
// under a trickle of ingest that keeps invalidating and re-warming the
// caches. The gates: steady-state cached throughput >= 5x the oracle's
// (quick: 3x), and every /v1/top and /v1/profile body byte-identical
// to the oracle's throughout. Byte equality is the whole point of the
// epoch design — the cache may only ever serve what a fresh fold would
// have produced.
//
// Phase 2 (3 nodes): the same seeding sharded across a ring, where the
// coordinator's scatter pays O(total state) bytes exactly once. The
// first fleet query full-ships every shard; repeat queries at
// unchanged epochs present the remembered epoch vectors and receive
// near-empty deltas. The gates: >=80% reduction in scatter
// bytes-on-wire per steady-state query vs the first, delta legs
// actually taken, and — after further keyed trickle — /v1/profile from
// every node byte-identical to a fault-free single-node oracle, with
// no partial marker.
func Query(w io.Writer, o Options) error {
	report.Section(w, "Query fast path: epoch caches, rendered responses, delta scatter")

	programs, pairsPer, minSpeedup := 50, 2500, 5.0
	cachedIters, oracleIters, trickleRounds := 3000, 12, 5
	if o.Quick {
		programs, pairsPer, minSpeedup = 12, 500, 3.0
		cachedIters, oracleIters, trickleRounds = 800, 8, 2
	}
	res := queryResult{SeedPairs: programs * pairsPer, Programs: programs}

	fmt.Fprintf(w, "seed: %d programs x %d pairs (%d total); cached vs uncached-oracle daemons, byte-compared throughout\n\n",
		programs, pairsPer, res.SeedPairs)

	if err := runQuerySingle(w, o, &res, programs, pairsPer, cachedIters, oracleIters, trickleRounds); err != nil {
		return fmt.Errorf("query: single node: %w", err)
	}
	if res.Speedup < minSpeedup {
		return fmt.Errorf("query: cached throughput %.1fx the oracle, below the %.0fx gate", res.Speedup, minSpeedup)
	}
	if err := runQueryFleet(w, o, &res); err != nil {
		return fmt.Errorf("query: 3-node: %w", err)
	}
	if res.ScatterReduction < 0.8 {
		return fmt.Errorf("query: steady-state scatter bytes reduced only %.0f%%, below the 80%% gate", 100*res.ScatterReduction)
	}
	if res.DeltaLegs == 0 {
		return fmt.Errorf("query: no scatter leg ever shipped a delta")
	}

	if !o.Quick {
		doc := struct {
			Experiment string      `json:"experiment"`
			Result     queryResult `json:"result"`
		}{Experiment: "query", Result: res}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_query.json", append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("query: write BENCH_query.json: %w", err)
		}
		fmt.Fprintln(w, "wrote BENCH_query.json")
	}
	fmt.Fprintln(w)
	return nil
}

// queryResult is the run's machine-readable summary.
type queryResult struct {
	SeedPairs        int     `json:"seed_pairs"`
	Programs         int     `json:"programs"`
	OracleQPS        float64 `json:"single_node_uncached_qps"`
	CachedQPS        float64 `json:"single_node_cached_qps"`
	Speedup          float64 `json:"single_node_speedup"`
	RenderedHits     uint64  `json:"rendered_cache_hits"`
	TrickleRounds    int     `json:"trickle_rounds"`
	ProfileCompares  int     `json:"oracle_profile_compares"`
	FleetQPS         float64 `json:"fleet_steady_qps"`
	FirstScatterB    uint64  `json:"first_scatter_bytes"`
	SteadyScatterB   uint64  `json:"steady_scatter_bytes_per_query"`
	ScatterReduction float64 `json:"scatter_bytes_reduction"`
	FullLegs         uint64  `json:"scatter_full_legs"`
	DeltaLegs        uint64  `json:"scatter_delta_legs"`
}

// queryProfile builds one program's synthetic batch: n distinct pairs
// with collision-heavy waste values, the shape that makes top-n
// selection and full folds expensive.
func queryProfile(program string, n int, seed int64) *witch.Profile {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]witch.Pair, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, witch.Pair{
			Src:   fmt.Sprintf("%s_store_%06d", program, i),
			Dst:   fmt.Sprintf("%s_load_%06d", program, i),
			Chain: fmt.Sprintf("%s:s%06d->l%06d", program, i, i),
			Waste: float64(rng.Intn(200)), Use: float64(rng.Intn(200)),
		})
	}
	return witch.NewProfile(witch.Profile{
		Program: program, Tool: string(witch.DeadStores), Waste: 1, Use: 1,
	}, pairs)
}

// localDaemon is an in-process daemon driven through its handler: the
// single-node phase measures fold-and-render cost, not TCP.
type localDaemon struct {
	srv *daemon.Server
	h   http.Handler
}

func newLocalDaemon(now func() time.Time, uncached bool) (*localDaemon, error) {
	node, err := daemon.OpenNode(daemon.NodeConfig{
		Store:  store.Config{Now: now, NoCache: uncached},
		Server: daemon.Config{Now: now, NoQueryCache: uncached},
	})
	if err != nil {
		return nil, err
	}
	return &localDaemon{srv: node.Server(), h: node.Handler()}, nil
}

func (d *localDaemon) ingest(body []byte) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	return nil
}

func (d *localDaemon) get(path string) (int, []byte) {
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.Bytes()
}

func runQuerySingle(w io.Writer, o Options, res *queryResult, programs, pairsPer, cachedIters, oracleIters, trickleRounds int) error {
	epoch := time.Unix(1700000000, 0)
	now := func() time.Time { return epoch }
	cached, err := newLocalDaemon(now, false)
	if err != nil {
		return err
	}
	oracle, err := newLocalDaemon(now, true)
	if err != nil {
		return err
	}

	bodies := make([][]byte, programs)
	for i := range bodies {
		var buf bytes.Buffer
		if err := queryProfile(fmt.Sprintf("qprog-%02d", i), pairsPer, o.Seed+int64(i)).WriteJSONCompact(&buf); err != nil {
			return err
		}
		bodies[i] = buf.Bytes()
		if err := cached.ingest(bodies[i]); err != nil {
			return err
		}
		if err := oracle.ingest(bodies[i]); err != nil {
			return err
		}
	}

	topPath := "/v1/top?tool=" + string(witch.DeadStores) + "&n=20"
	compare := func(path string) error {
		cc, cb := cached.get(path)
		oc, ob := oracle.get(path)
		if cc != oc || !bytes.Equal(cb, ob) {
			return fmt.Errorf("GET %s: cached daemon (HTTP %d) diverges from uncached oracle (HTTP %d)", path, cc, oc)
		}
		return nil
	}
	if err := compare(topPath); err != nil {
		return err
	}

	// The throughput race: identical repeated queries, timed. The first
	// cached query above warmed the caches, so this measures steady
	// state on both sides.
	timeQueries := func(d *localDaemon, iters int) (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if code, _ := d.get(topPath); code != http.StatusOK {
				return 0, fmt.Errorf("query %d: HTTP %d", i, code)
			}
		}
		return float64(iters) / time.Since(start).Seconds(), nil
	}
	if res.OracleQPS, err = timeQueries(oracle, oracleIters); err != nil {
		return err
	}
	if res.CachedQPS, err = timeQueries(cached, cachedIters); err != nil {
		return err
	}
	res.Speedup = res.CachedQPS / res.OracleQPS

	// Trickle: each round lands one new batch on both daemons (epoch
	// bump, caches invalidate) and byte-compares /v1/top plus a sample
	// of per-program /v1/profile views against the oracle.
	rng := rand.New(rand.NewSource(o.Seed + 11))
	for round := 0; round < trickleRounds; round++ {
		var buf bytes.Buffer
		prog := fmt.Sprintf("qprog-%02d", rng.Intn(programs))
		if err := queryProfile(prog, 100, o.Seed+int64(1000+round)).WriteJSONCompact(&buf); err != nil {
			return err
		}
		if err := cached.ingest(buf.Bytes()); err != nil {
			return err
		}
		if err := oracle.ingest(buf.Bytes()); err != nil {
			return err
		}
		if err := compare(topPath); err != nil {
			return fmt.Errorf("trickle round %d: %w", round, err)
		}
		for k := 0; k < 3; k++ {
			p := fmt.Sprintf("qprog-%02d", rng.Intn(programs))
			if err := compare("/v1/profile?tool=" + string(witch.DeadStores) + "&program=" + p); err != nil {
				return fmt.Errorf("trickle round %d: %w", round, err)
			}
			res.ProfileCompares++
		}
	}
	res.TrickleRounds = trickleRounds
	res.RenderedHits, _ = cached.srv.ViewCacheStats()
	if res.RenderedHits == 0 {
		return fmt.Errorf("the rendered-response cache never hit")
	}

	tbl := report.NewTable("", "daemon", "seed pairs", "/v1/top QPS", "vs oracle")
	tbl.Row("uncached oracle", fmt.Sprint(res.SeedPairs), report.F(res.OracleQPS, 0), "1.0x")
	tbl.Row("cached (epoch + rendered)", fmt.Sprint(res.SeedPairs), report.F(res.CachedQPS, 0), report.X(res.Speedup))
	tbl.Fprint(w)
	fmt.Fprintf(w, "\n%d trickle rounds: every /v1/top and /v1/profile byte-identical to the oracle (%d profile compares)\n\n",
		res.TrickleRounds, res.ProfileCompares)
	return nil
}

func runQueryFleet(w io.Writer, o Options, res *queryResult) error {
	pushers, pairsPer, steadyQueries := 15, 800, 20
	if o.Quick {
		pushers, pairsPer, steadyQueries = 6, 200, 10
	}
	root, err := os.MkdirTemp("", "witch-query-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	epoch := time.Unix(1700000000, 0)
	now := func() time.Time { return epoch }
	cns, err := bootCluster(root, 3, now, wal.Options{GroupCommit: true}, nil)
	if err != nil {
		return err
	}
	oracle, err := newLocalDaemon(now, true)
	if err != nil {
		return err
	}

	// Keyed seeding: pusher i enters at node i%3, the ring forwards to
	// the owner, so the state is genuinely sharded. The oracle eats the
	// same bodies unkeyed — the merged fold is partition-agnostic.
	push := func(i int, seq uint64, body []byte) error {
		req, err := http.NewRequest(http.MethodPost, cns[i%3].url+"/v1/ingest", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(witch.PusherIDHeader, fmt.Sprintf("query-pusher-%02d", i))
		req.Header.Set(witch.PusherSeqHeader, strconv.FormatUint(seq, 10))
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("keyed ingest pusher %d seq %d: HTTP %d", i, seq, r.StatusCode)
		}
		return oracle.ingest(body)
	}
	progOf := func(i int) string { return fmt.Sprintf("fprog-%02d", i) }
	for i := 0; i < pushers; i++ {
		var buf bytes.Buffer
		if err := queryProfile(progOf(i), pairsPer, o.Seed+int64(100+i)).WriteJSONCompact(&buf); err != nil {
			return err
		}
		if err := push(i, 1, buf.Bytes()); err != nil {
			return err
		}
	}

	topURL := cns[0].url + "/v1/top?tool=" + string(witch.DeadStores) + "&n=20"
	fleetGet := func(url string) (*http.Response, []byte, error) {
		r, err := http.Get(url)
		if err != nil {
			return nil, nil, err
		}
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		return r, b, nil
	}

	// First fleet query: the coordinator has no baselines, every leg
	// full-ships its shard — this is the O(total state) cost paid once.
	r1, first, err := fleetGet(topURL)
	if err != nil {
		return err
	}
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Witch-Incomplete") != "" {
		return fmt.Errorf("first fleet query: HTTP %d incomplete=%q", r1.StatusCode, r1.Header.Get("X-Witch-Incomplete"))
	}
	cs := cns[0].cl.StatsSnapshot()
	if cs.ScatterFullLegs == 0 {
		return fmt.Errorf("first fleet query full-shipped nothing")
	}
	res.FirstScatterB = cs.ScatterBytes

	// Steady state: identical queries at unchanged epochs. Every leg
	// presents a current vector and gets back an empty delta — the wire
	// cost drops to the version vector and the hint ledger.
	start := time.Now()
	for i := 0; i < steadyQueries; i++ {
		rn, body, err := fleetGet(topURL)
		if err != nil {
			return err
		}
		if rn.StatusCode != http.StatusOK || !bytes.Equal(body, first) {
			return fmt.Errorf("steady query %d drifted from the first (HTTP %d)", i, rn.StatusCode)
		}
	}
	res.FleetQPS = float64(steadyQueries) / time.Since(start).Seconds()
	cs2 := cns[0].cl.StatsSnapshot()
	res.SteadyScatterB = (cs2.ScatterBytes - res.FirstScatterB) / uint64(steadyQueries)
	res.ScatterReduction = 1 - float64(res.SteadyScatterB)/float64(res.FirstScatterB)
	res.FullLegs, res.DeltaLegs = cs2.ScatterFullLegs, cs2.ScatterDeltaLegs

	// Trickle plus the fleet-wide oracle gate: new keyed batches land
	// (the deltas ship just the changed partitions), then every node
	// must serve every program's /v1/profile byte-identical to the
	// fault-free oracle, complete.
	for i := 0; i < pushers; i++ {
		var buf bytes.Buffer
		if err := queryProfile(progOf(i), 50, o.Seed+int64(500+i)).WriteJSONCompact(&buf); err != nil {
			return err
		}
		if err := push(i, 2, buf.Bytes()); err != nil {
			return err
		}
	}
	for i := 0; i < pushers; i++ {
		q := "/v1/profile?tool=" + string(witch.DeadStores) + "&program=" + progOf(i)
		oc, ob := oracle.get(q)
		for _, cn := range cns {
			rn, body, err := fleetGet(cn.url + q)
			if err != nil {
				return err
			}
			if rn.StatusCode != oc {
				return fmt.Errorf("program %s: node %s answered %d, oracle %d", progOf(i), cn.url, rn.StatusCode, oc)
			}
			if inc := rn.Header.Get("X-Witch-Incomplete"); inc != "" {
				return fmt.Errorf("program %s: node %s partial (%s) with the whole ring up", progOf(i), cn.url, inc)
			}
			if !bytes.Equal(body, ob) {
				return fmt.Errorf("program %s: node %s diverges from the oracle after trickle", progOf(i), cn.url)
			}
		}
		res.ProfileCompares += len(cns)
	}

	tbl := report.NewTable("", "fleet metric", "value")
	tbl.Row("first-query scatter bytes", fmt.Sprint(res.FirstScatterB))
	tbl.Row("steady bytes/query", fmt.Sprint(res.SteadyScatterB))
	tbl.Row("bytes reduction", report.Pct(res.ScatterReduction))
	tbl.Row("full legs / delta legs", fmt.Sprintf("%d / %d", res.FullLegs, res.DeltaLegs))
	tbl.Row("steady fleet QPS", report.F(res.FleetQPS, 0))
	tbl.Fprint(w)
	fmt.Fprintf(w, "\n3-node ring: every node byte-identical to the oracle after trickle (gate: >=80%% byte reduction)\n")

	for _, cn := range cns {
		if err := cn.stop(); err != nil {
			return err
		}
	}
	return nil
}
