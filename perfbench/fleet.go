package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/witch"
)

// The fleet workload: a 3-process witchd ring with its default RF=2,
// seeded at set-up with a synthetic state, then two open-loop
// streams side by side. Writes enter at every node, so about two thirds
// are forwarded to their owner and every batch is replicated. Dashboard
// reads arrive in refresh bursts, each burst at one node (rotating): one
// /v1/top?n=20 plus one /v1/profile, issued together. The measured unit
// of work is a whole refresh; the writes are checked and their latency
// reported per layer.
const (
	fleetNodes        = 3
	fleetRate         = 20 // write batches per second
	fleetPushers      = 64
	fleetBurstsPerSec = 2
	fleetBurstReads   = 2 // one /v1/top plus one /v1/profile
	fleetSeedPrograms = 16
	fleetSeedPairs    = 250
)

var craftNames = []string{"DeadCraft", "SilentCraft", "LoadCraft"}

// seedProfiles builds the synthetic seed state: fleetSeedPrograms
// programs of fleetSeedPairs whole-numbered pairs each, spread over the
// three crafts.
func seedProfiles(cfg config) []*witch.Profile {
	programs, pairs := fleetSeedPrograms, fleetSeedPairs
	if cfg.tiny {
		programs, pairs = 4, 200
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var out []*witch.Profile
	for p := 0; p < programs; p++ {
		meta := witch.Profile{Program: fmt.Sprintf("svc%02d", p), Tool: craftNames[p%len(craftNames)],
			WallTime: time.Duration(rng.Intn(1e9)), Instrs: uint64(rng.Intn(1e9)),
			Loads: uint64(rng.Intn(1e8)), Stores: uint64(rng.Intn(1e8))}
		var ps []witch.Pair
		for i := 0; i < pairs; i++ {
			fn := rng.Intn(400)
			pr := witch.Pair{
				Src:     fmt.Sprintf("svc%02d.c:f%d:%d", p, fn, 10+rng.Intn(4000)),
				Dst:     fmt.Sprintf("svc%02d.c:f%d:%d", p, rng.Intn(400), 10+rng.Intn(4000)),
				Chain:   fmt.Sprintf("main>f%d>f%d>f%d", rng.Intn(50), rng.Intn(200), fn),
				Waste:   float64(1 + rng.Intn(1e6)),
				Use:     float64(rng.Intn(1e6)),
				SrcLine: 10 + rng.Intn(4000), DstLine: 10 + rng.Intn(4000),
			}
			meta.Waste += pr.Waste
			meta.Use += pr.Use
			ps = append(ps, pr)
		}
		meta.Redundancy = meta.Waste / (meta.Waste + meta.Use)
		out = append(out, witch.NewProfile(meta, ps))
	}
	return out
}

type fleetRig struct {
	nodes      []*node
	urls       []string
	w          *writeStream
	seedBodies [][]byte
	seedViews  [][2]string
}

func (r *fleetRig) close() error {
	closePushers(r.w.pushers)
	return stopAll(r.nodes)
}

func setupFleet(cfg config, rep int) (rig *fleetRig, err error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("fleet-rep%d", rep))
	rig = &fleetRig{}
	var seeders []*witch.Pusher
	defer func() {
		if err != nil {
			closePushers(seeders)
			if rig.w != nil {
				closePushers(rig.w.pushers)
			}
			stopAll(rig.nodes)
		}
	}()
	addrs, err := freeAddrs(fleetNodes)
	if err != nil {
		return nil, err
	}
	for _, addr := range addrs {
		rig.urls = append(rig.urls, "http://"+addr)
	}
	peers := strings.Join(rig.urls, ",")
	for i, addr := range addrs {
		n, err := startNode(cfg, addr, filepath.Join(dir, fmt.Sprintf("data%d", i)), fmt.Sprintf("witchd%d-rep%d", i, rep),
			"-peers", peers, "-advertise", rig.urls[i])
		if err != nil {
			return nil, err
		}
		rig.nodes = append(rig.nodes, n)
	}
	for _, n := range rig.nodes {
		if err := n.waitReady(); err != nil {
			return nil, err
		}
	}
	if rig.w, err = newWriteStream(cfg, fleetPushers, rig.urls); err != nil {
		return nil, err
	}
	// Seed through default Pushers entering at every node, one profile
	// each, and wait until every one is acked. The write stream's
	// profiles go in once too, so every view a reader asks for exists.
	for i, p := range append(seedProfiles(cfg), rig.w.profs...) {
		body, err := encode(p)
		if err != nil {
			return nil, err
		}
		sp, err := witch.NewPusher(witch.PusherOptions{URL: rig.urls[i%len(rig.urls)]})
		if err != nil {
			return nil, err
		}
		seeders = append(seeders, sp)
		sp.Push(p)
		rig.seedBodies = append(rig.seedBodies, body)
		rig.seedViews = append(rig.seedViews, [2]string{p.Tool, p.Program})
	}
	closePushers(seeders)
	for _, sp := range seeders {
		if st := sp.Stats(); st.Sent != 1 {
			return nil, fmt.Errorf("seeding: pusher %s sent %d of 1 (%v)", sp.ID(), st.Sent, st.DroppedByReason)
		}
	}
	return rig, nil
}

// readStream is the dashboard: refresh bursts at a fixed rate.
type readStream struct {
	client *http.Client
	urls   []string
	views  [][2]string
	order  []int // a seeded permutation of views
	spans  *spanLog

	mu      sync.Mutex
	lat     []float64 // per read
	refresh []latency // per burst: until its last read completed
	errs    []string
	n       int
}

func (r *readStream) run(seconds float64) []float64 {
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	late := openLoop(start, end, fleetBurstsPerSec, func(k int, sched time.Time) {
		fired := time.Now()
		// Every run reads the same views equally often, in a seeded order,
		// so runs differ in order only and not in how much they read.
		base := r.urls[k%len(r.urls)]
		tool := craftNames[(k/len(r.urls))%len(craftNames)]
		queries := []string{"/v1/top?tool=" + tool + "&n=20"}
		for i := 1; i < fleetBurstReads; i++ {
			v := r.views[r.order[(k*(fleetBurstReads-1)+i-1)%len(r.order)]]
			queries = append(queries, "/v1/profile?tool="+v[0]+"&program="+v[1])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var burst sync.WaitGroup
			var failed atomic.Bool
			for _, q := range queries {
				burst.Add(1)
				go func(url string) {
					defer burst.Done()
					if !r.read(url, sched) {
						failed.Store(true)
					}
				}(base + q)
			}
			burst.Wait()
			if !failed.Load() {
				r.mu.Lock()
				r.refresh = append(r.refresh, latency{ms(fired.Sub(sched)), ms(time.Since(fired))})
				r.mu.Unlock()
			}
		}()
	})
	wg.Wait()
	return late
}

// read performs one dashboard read; its latency runs from the burst's
// scheduled time to the last byte of the response. It reports whether
// the read succeeded.
func (r *readStream) read(url string, sched time.Time) bool {
	start := time.Now()
	resp, err := r.client.Get(url)
	var n int64
	if err == nil {
		buf := make([]byte, 64<<10)
		for {
			k, rerr := resp.Body.Read(buf)
			n += int64(k)
			if rerr != nil {
				break
			}
		}
		resp.Body.Close()
	}
	end := time.Now()
	r.spans.record("http.query", 0, start, end)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	switch {
	case err != nil:
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", url, err))
	case resp.StatusCode != http.StatusOK:
		r.errs = append(r.errs, fmt.Sprintf("%s: status %d", url, resp.StatusCode))
	case resp.Header.Get("X-Witch-Incomplete") != "":
		r.errs = append(r.errs, fmt.Sprintf("%s: incomplete (%s)", url, resp.Header.Get("X-Witch-Incomplete")))
	case n == 0:
		r.errs = append(r.errs, fmt.Sprintf("%s: empty body", url))
	default:
		r.lat = append(r.lat, ms(end.Sub(sched)))
		return true
	}
	return false
}

// totals are the latencies from schedule to end, in ms.
func totals(ls []latency) []float64 {
	var xs []float64
	for _, l := range ls {
		xs = append(xs, l.late+l.work)
	}
	return xs
}

// readStats are the dashboard's latencies: per read and per refresh.
type readStats struct {
	lat     []float64
	refresh []latency
}

func (r *readStream) collect(out *outcome) readStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out.attempted += int64(r.n)
	for _, e := range r.errs {
		out.fail("read %s", e)
	}
	return readStats{r.lat, r.refresh}
}

// phase runs both streams side by side and returns the write and read
// results with the ring's CPU over the phase.
func (rig *fleetRig) phase(seconds float64, reads *readStream, out *outcome) (ackStats, readStats, time.Duration, error) {
	cpu0, err := ringCPU(rig.nodes)
	if err != nil {
		return ackStats{}, readStats{}, 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rig.w.run(seconds, fleetRate)
	}()
	reads.run(seconds)
	wg.Wait()
	cpu1, err := ringCPU(rig.nodes)
	if err != nil {
		return ackStats{}, readStats{}, 0, err
	}
	return rig.w.collect(out), reads.collect(out), cpu1 - cpu0, nil
}

func ringCPU(nodes []*node) (time.Duration, error) {
	var total time.Duration
	for _, n := range nodes {
		c, err := n.cpu()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func (rig *fleetRig) newReads(cfg config, seed int64, spans *spanLog) *readStream {
	base := &http.Transport{MaxConnsPerHost: conns(), MaxIdleConnsPerHost: conns(), IdleConnTimeout: time.Minute}
	return &readStream{client: &http.Client{Transport: base, Timeout: 10 * time.Second},
		urls: rig.urls, views: rig.seedViews,
		order: rand.New(rand.NewSource(seed)).Perm(len(rig.seedViews)), spans: spans}
}

func runFleet(cfg config) (*outcome, error) {
	out := newOutcome()
	rig, setupS, err := setupMedian(cfg, func(rep int) (*fleetRig, error) { return setupFleet(cfg, rep) },
		(*fleetRig).close)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			stopAll(rig.nodes)
		}
	}()
	v := out.values
	v["setup_s"] = setupS
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}

	host := measureHost()
	mem := sampleRSS(rig.nodes)
	s, reads, cpu, err := rig.phase(seconds, rig.newReads(cfg, cfg.seed+1, nil), out)
	if err != nil {
		return nil, err
	}
	if err := mem.finish(v); err != nil {
		return nil, err
	}
	if err := host.record(v); err != nil {
		return nil, err
	}
	ackMetrics(v, s)
	v["query_p50_ms"] = percentile(reads.lat, 0.5)
	v["query_p90_ms"] = percentile(reads.lat, 0.9)
	v["query_p99_ms"] = percentile(reads.lat, 0.99)
	// A refresh mixes /v1/top with /v1/profile reads of different cost,
	// so a percentile over single reads sits between the two kinds; the
	// gated latency is the whole refresh's.
	out.p50 = reads.refresh
	v["p50_ms"] = p50Of(reads.refresh, 1)
	v["p90_ms"] = percentile(totals(reads.refresh), 0.9)
	v["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(max(s.acked+len(reads.lat), 1))
	v["cpu_us_per_ack"] = float64(cpu.Microseconds()) / float64(max(s.acked, 1))
	bodies := append(append([][]byte{}, rig.seedBodies...), s.bodies...)

	if cfg.trace {
		spans := newSpanLog()
		if err := rig.w.reset(rig.urls, fleetPushers, spans); err != nil {
			return nil, err
		}
		var ts ackStats
		var treads readStats
		d, wrote, err := observed(rig.nodes, func() (err error) {
			ts, treads, _, err = rig.phase(seconds, rig.newReads(cfg, cfg.seed+2, spans), out)
			return err
		})
		if err != nil {
			return nil, err
		}
		writeLayers(v, rig.w, ts, d)
		fleetLayers(v, d, ts, treads.lat, wrote)
		if err := d.err(); err != nil {
			return nil, err
		}
		if q := v["daemon.hints_queued"]; q > 0 {
			out.fail("the healthy ring queued %v hinted-handoff records", q)
		}
		v["trace.overhead_frac"] = p50Of(treads.refresh, 1)/v["p50_ms"] - 1
		bodies = append(bodies, ts.bodies...)
		if err := spans.write(cfg, "fleet"); err != nil {
			return nil, err
		}
	}

	if cfg.corrupt == "oracle" && len(bodies) > 0 {
		bodies = bodies[:len(bodies)-1]
	}
	t0 := time.Now()
	checks, err := oracleCheck(cfg, rig.nodes, bodies, checkViews(rig.w), out)
	if err != nil {
		return nil, err
	}
	out.attempted += checks
	fmt.Fprintf(os.Stderr, "perfbench: oracle compared %d views in %.1fs\n", checks, time.Since(t0).Seconds())
	stopped = true
	return out, stopAll(rig.nodes)
}

// fleetLayers fills the journal, cluster, cache and query-path numbers
// from the traced phase's /metrics diff and the bytes the ring wrote to
// storage meanwhile.
func fleetLayers(v map[string]float64, d *metricsDiff, s ackStats, reads []float64, wrote float64) {
	acked := float64(s.acked)
	v["wal.commit_wait_ms"] = d.stageMs("journal_commit")
	v["daemon.snapshots_per_kack"] = frac(d.get("witchd_snapshots_total"), acked) * 1000
	v["wal.bytes_per_ack"] = frac(wrote, acked)
	nReads := float64(len(reads))
	v["cluster.forward_frac"] = frac(d.get("witchd_cluster_forwards_total"), acked)
	v["cluster.replicate_ms"] = d.stageMs("replicate")
	v["cluster.scatter_leg_ms"] = d.stageMs("scatter_leg")
	v["cluster.peer_rtt_ms"] = d.familyMeanMs("witchd_peer_rtt_seconds")
	v["cluster.scatter_bytes_per_query"] = frac(d.get("witchd_cluster_scatter_bytes_total"), nReads)
	delta, full := d.get("witchd_cluster_scatter_delta_legs_total"), d.get("witchd_cluster_scatter_full_legs_total")
	v["cluster.delta_leg_frac"] = frac(delta, delta+full)
	hits, misses := d.get("witchd_query_cache_hits_total"), d.get("witchd_query_cache_misses_total")
	v["daemon.view_hit_frac"] = frac(hits, hits+misses)
	sh := d.get("witchd_store_query_cache_hits_total") + d.get("witchd_store_export_cache_hits_total")
	sm := d.get("witchd_store_query_cache_misses_total") + d.get("witchd_store_export_cache_misses_total")
	v["store.cache_hit_frac"] = frac(sh, sh+sm)
	v["daemon.query_ms"] = d.stageMs("query")
	v["agg.fold_ms"] = d.stageMs("query_fold")
	v["daemon.hints_queued"] = d.get("witchd_hints_queued_total")
	v["residual_frac"] = 1 - v["daemon.query_ms"]/mean(reads)
}
