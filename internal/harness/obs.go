package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/wal"
	"repro/witch"
)

// Obs is the observability gate, in three phases.
//
// Phase 1 (overhead): the same single-node ingest load runs with the
// observability layer fully off (nil Observer, NoTrace pushers — the
// zero-cost compile-out path) and fully on (stage histograms, span
// ring, slow capture, per-attempt trace headers). Observability is a
// witness: it must never buy its insight with throughput, so the gate
// is enabled acked-batch throughput within 5% of disabled (quick runs
// relax the gate for noisy CI boxes, the full run enforces the paper
// number).
//
// Phase 2 (trace tree): a 3-node RF=2 ring with tracing on, entered
// through a node that owns neither copy of the pusher's partition, so
// one acked batch touches every role: entry (ingest + forward leg),
// owner (ingest + journal commit + replicate leg), replica (replicate
// apply + journal commit). GET /v1/trace/{id} with the pusher's last
// trace ID must assemble spans from all three nodes covering the
// ingest, journal_commit, and replicate_apply stages — the cross-node
// span tree from one curl.
//
// Phase 3 (witness proof): an identical ring with observability
// disabled ingests the same batches; GET /v1/profile from every node
// of both rings must be byte-identical. Tracing that changed a single
// response byte would fail here.
func Obs(w io.Writer, o Options) error {
	report.Section(w, "Observability: stage histograms, cross-node tracing, slow capture")

	// Each rep must run long enough that scheduler jitter can't fake a
	// percent-level gap: at ~40ms a single descheduling tick reads as
	// >10% "overhead" (the layer's real CPU cost never even samples in
	// a profile). ~200ms reps with best-of-5 interleaving keep the 5%
	// gate about the layer, not the OS. Quick runs relax the bound to
	// 25% and double the batches, so even the fastest rep on a busy
	// host stays above ~200ms: shorter reps or best of 2 read its
	// jitter as more than 25%.
	pushers, perPusher, reps, maxRatio := 8, 160, 5, 1.05
	if o.Quick {
		perPusher, maxRatio = 320, 1.25
	}
	prof, err := witch.Run(mustWorkload("listing3"), witch.Options{
		Tool: witch.DeadStores, Period: 97, Seed: o.Seed,
	})
	if err != nil {
		return fmt.Errorf("obs: workload profile: %w", err)
	}

	fmt.Fprintf(w, "overhead: %d pushers x %d batches on one node, tracing off vs on, best of %d\n\n",
		pushers, perPusher, reps)
	var offBest, onBest time.Duration
	for r := 0; r < reps; r++ {
		// Interleave the two configurations so drift (thermal, cache,
		// scheduler) hits both sides equally.
		off, err := runObsLoad(prof, pushers, perPusher, false)
		if err != nil {
			return fmt.Errorf("obs: disabled run: %w", err)
		}
		on, err := runObsLoad(prof, pushers, perPusher, true)
		if err != nil {
			return fmt.Errorf("obs: enabled run: %w", err)
		}
		if offBest == 0 || off < offBest {
			offBest = off
		}
		if onBest == 0 || on < onBest {
			onBest = on
		}
	}
	batches := float64(pushers * perPusher)
	offRate, onRate := batches/offBest.Seconds(), batches/onBest.Seconds()
	ratio := offRate / onRate
	if ratio < 1 {
		ratio = 1 // the witness can't make ingest faster; clamp timer noise
	}
	tbl := report.NewTable("", "observability", "acked batches", "elapsed", "batches/s", "cost")
	tbl.Row("off", fmt.Sprint(int(batches)), report.Dur(offBest), report.F(offRate, 0), "-")
	tbl.Row("on", fmt.Sprint(int(batches)), report.Dur(onBest), report.F(onRate, 0),
		report.Pct(ratio-1))
	tbl.Fprint(w)
	fmt.Fprintf(w, "\noverhead %s (gate: <=%s)\n", report.Pct(ratio-1), report.Pct(maxRatio-1))
	if ratio > maxRatio {
		return fmt.Errorf("obs: enabled throughput costs %.1f%%, above the %.1f%% gate",
			100*(ratio-1), 100*(maxRatio-1))
	}

	tree, err := runObsTrace(prof, o)
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	fmt.Fprintf(w, "\ntrace %s: %d spans from %d nodes (stages: %s); slow ring kept %d\n",
		tree.Trace, tree.Spans, tree.Nodes, strings.Join(tree.Stages, " "), tree.SlowKept)
	fmt.Fprintln(w, "witness proof: /v1/profile byte-identical to the tracing-disabled ring from every node")

	if !o.Quick {
		doc := struct {
			Experiment     string       `json:"experiment"`
			Batches        int          `json:"acked_batches"`
			DisabledPerSec float64      `json:"disabled_batches_per_sec"`
			EnabledPerSec  float64      `json:"enabled_batches_per_sec"`
			OverheadFrac   float64      `json:"overhead_frac"`
			Gate           float64      `json:"gate_frac"`
			Trace          obsTraceTree `json:"trace"`
		}{
			Experiment: "obs", Batches: int(batches),
			DisabledPerSec: offRate, EnabledPerSec: onRate,
			OverheadFrac: ratio - 1, Gate: maxRatio - 1, Trace: tree,
		}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_obs.json", append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("obs: write BENCH_obs.json: %w", err)
		}
		fmt.Fprintln(w, "wrote BENCH_obs.json")
	}
	fmt.Fprintln(w)
	return nil
}

// runObsLoad drives one single-node ingest burst and returns the wall
// time from first push to last ack. enabled toggles the whole layer:
// observer on the daemon and per-attempt tracing on the pushers.
func runObsLoad(prof *witch.Profile, pushers, perPusher int, enabled bool) (time.Duration, error) {
	root, err := os.MkdirTemp("", "witch-obs-load-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(root)
	epoch := time.Unix(1700000000, 0)
	cns, err := bootCluster(root, 1, func() time.Time { return epoch },
		wal.Options{NoSync: true}, func(cn *clusterNode) {
			if enabled {
				cn.ob = obs.New(obs.Options{Node: cn.url, TraceRing: 4096, SlowCapture: 32})
			}
		})
	if err != nil {
		return 0, err
	}

	ps := make([]*witch.Pusher, pushers)
	for i := range ps {
		if ps[i], err = witch.NewPusher(witch.PusherOptions{
			URL: cns[0].url, Queue: perPusher,
			Backoff: time.Millisecond,
			Client:  &http.Client{Timeout: 10 * time.Second},
			Logf:    func(string, ...any) {},
			NoTrace: !enabled,
		}); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	errc := make(chan error, pushers)
	for _, p := range ps {
		go func(p *witch.Pusher) {
			for j := 0; j < perPusher; j++ {
				if !p.Push(prof) {
					p.Close()
					errc <- fmt.Errorf("push %d rejected", j)
					return
				}
			}
			p.Close()
			if s := p.Stats(); s.Sent != uint64(perPusher) || s.Dropped != 0 {
				errc <- fmt.Errorf("pusher delivered %d/%d (dropped %d)", s.Sent, perPusher, s.Dropped)
				return
			}
			errc <- nil
		}(p)
	}
	for range ps {
		if err := <-errc; err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if err := cns[0].stop(); err != nil {
		return 0, err
	}
	return elapsed, nil
}

// obsTraceTree is the machine-readable summary of the gathered tree.
type obsTraceTree struct {
	Trace    string   `json:"trace"`
	Nodes    int      `json:"nodes"`
	Spans    int      `json:"spans"`
	Stages   []string `json:"stages"`
	SlowKept int      `json:"slow_kept"`
}

// runObsTrace boots a traced 3-node RF=2 ring plus a tracing-disabled
// oracle ring, pushes the same batches through both with the entry
// node forced outside the replica set, asserts the cross-node span
// tree, and byte-compares /v1/profile across the rings.
func runObsTrace(prof *witch.Profile, o Options) (obsTraceTree, error) {
	var tree obsTraceTree
	root, err := os.MkdirTemp("", "witch-obs-trace-")
	if err != nil {
		return tree, err
	}
	defer os.RemoveAll(root)
	epoch := time.Unix(1700000000, 0)
	now := func() time.Time { return epoch }
	walOpts := wal.Options{GroupCommit: true}
	boot := func(dir string, traced bool) ([]*clusterNode, error) {
		return bootCluster(filepath.Join(root, dir), 3, now, walOpts, func(cn *clusterNode) {
			cn.rf = 2
			if traced {
				cn.ob = obs.New(obs.Options{Node: cn.url, TraceRing: 4096, SlowCapture: 8})
			}
		})
	}
	traced, err := boot("traced", true)
	if err != nil {
		return tree, err
	}
	oracle, err := boot("oracle", false)
	if err != nil {
		return tree, err
	}

	const perPusher = 5
	push := func(cns []*clusterNode, noTrace bool) (*witch.Pusher, error) {
		// Redraw the identity until node 0 holds neither copy, so the
		// entry hop, the owner, and the replica are three distinct nodes.
		for try := 0; try < 400; try++ {
			p, err := witch.NewPusher(witch.PusherOptions{
				URL: cns[0].url, Queue: perPusher,
				Backoff: time.Millisecond,
				Client:  &http.Client{Timeout: 10 * time.Second},
				Logf:    func(string, ...any) {},
				NoTrace: noTrace,
			})
			if err != nil {
				return nil, err
			}
			inSet := false
			for _, peer := range cns[0].cl.ReplicaSet(p.ID()) {
				if peer == cns[0].url {
					inSet = true
					break
				}
			}
			if !inSet {
				for i := 0; i < perPusher; i++ {
					if !p.Push(prof) {
						return nil, fmt.Errorf("push %d rejected", i)
					}
				}
				p.Close() // blocks until acked
				if s := p.Stats(); s.Sent != perPusher || s.Dropped != 0 {
					return nil, fmt.Errorf("delivered %d/%d (dropped %d)", s.Sent, perPusher, s.Dropped)
				}
				return p, nil
			}
			p.Close()
		}
		return nil, fmt.Errorf("no pusher identity excluded node 0 from its replica set in 400 draws")
	}
	tp, err := push(traced, false)
	if err != nil {
		return tree, fmt.Errorf("traced ring: %w", err)
	}
	if _, err := push(oracle, true); err != nil {
		return tree, fmt.Errorf("oracle ring: %w", err)
	}

	// One curl against the entry node gathers the fleet's spans.
	traceID := tp.Stats().LastTrace
	if traceID == "" {
		return tree, fmt.Errorf("pusher minted no trace ID")
	}
	var gathered struct {
		Trace      string     `json:"trace"`
		Nodes      []string   `json:"nodes"`
		Spans      []obs.Span `json:"spans"`
		Incomplete []string   `json:"incomplete"`
	}
	r, err := http.Get(traced[0].url + "/v1/trace/" + traceID)
	if err != nil {
		return tree, err
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return tree, fmt.Errorf("/v1/trace/%s: HTTP %d: %s", traceID, r.StatusCode, body)
	}
	if err := json.Unmarshal(body, &gathered); err != nil {
		return tree, fmt.Errorf("/v1/trace decode: %w", err)
	}
	if len(gathered.Incomplete) > 0 {
		return tree, fmt.Errorf("trace gather incomplete: %v", gathered.Incomplete)
	}
	if len(gathered.Nodes) < 3 {
		return tree, fmt.Errorf("trace %s touched %d nodes, want all 3: %s", traceID, len(gathered.Nodes), body)
	}
	stages := map[string]bool{}
	for _, sp := range gathered.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"ingest", "forward_leg", "journal_commit", "replicate_leg", "replicate_apply"} {
		if !stages[want] {
			return tree, fmt.Errorf("trace %s is missing a %q span: %s", traceID, want, body)
		}
	}
	tree.Trace = traceID
	tree.Nodes = len(gathered.Nodes)
	tree.Spans = len(gathered.Spans)
	for st := range stages {
		tree.Stages = append(tree.Stages, st)
	}
	sort.Strings(tree.Stages)

	// The slow ring captured the requests (no threshold: top-K keeps
	// everything while underfull).
	var slow struct {
		Kept int `json:"kept"`
	}
	r, err = http.Get(traced[0].url + "/v1/slow")
	if err != nil {
		return tree, err
	}
	if err := json.NewDecoder(r.Body).Decode(&slow); err != nil {
		r.Body.Close()
		return tree, err
	}
	r.Body.Close()
	if slow.Kept == 0 {
		return tree, fmt.Errorf("/v1/slow kept nothing after %d ingests", perPusher)
	}
	tree.SlowKept = slow.Kept

	// Witness proof: every node of both rings serves the same bytes.
	q := "/v1/profile?tool=" + prof.Tool + "&program=" + prof.Program
	var want []byte
	for _, cn := range append(append([]*clusterNode{}, oracle...), traced...) {
		resp, err := http.Get(cn.url + q)
		if err != nil {
			return tree, err
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return tree, fmt.Errorf("node %s: HTTP %d", cn.url, resp.StatusCode)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			return tree, fmt.Errorf("node %s diverges from the tracing-disabled oracle — observability touched the response bytes", cn.url)
		}
	}

	for _, cn := range append(traced, oracle...) {
		if err := cn.stop(); err != nil {
			return tree, err
		}
	}
	return tree, nil
}
