package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/daemon"
	"repro/internal/report"
	"repro/internal/wal"
	"repro/witch"
)

// Ingest is the macro-benchmark for the ingest fast path: it boots a
// real witchd (store + HTTP handler + write-ahead journal on real
// files) in-process and drives it with concurrent witch.Pushers,
// measuring acked-batch throughput under per-append fsync (the
// pre-fast-path policy) and group commit, both over the binary wire
// encoding every Pusher sends. Every acked batch is durable in both
// modes, so the spread is pure commit path: fsyncs amortized over
// commit gangs.
//
// The pushers talk to the daemon through a loopback http.RoundTripper
// that dispatches straight into the handler. This elides the kernel
// TCP hop — on a one-core machine the socket stack would otherwise
// charge ~70µs of unrelated CPU to every batch and mask the commit
// path this experiment exists to measure. Everything else is the
// production stack: real Pusher, real handler, real journal, real
// fsync.
//
// It also re-measures the codec and merge allocation profiles with
// testing.Benchmark, gates the group-commit speedup and the ≥50%
// allocation reduction, and (in full runs) writes the machine-readable
// BENCH_ingest.json for the checked-in record.
func Ingest(w io.Writer, o Options) error {
	report.Section(w, "Ingest fast path: group commit + pooled codecs (witchd macro-benchmark)")

	pushers, perPusher, minSpeedup, reps := 32, 40, 5.0, 3
	if o.Quick {
		pushers, minSpeedup = 8, 2.0
	}
	// The pushed profile is the paper's running example (Listing 3
	// under DeadCraft): a continuous-profiling push is one small
	// profile, not a bulk upload.
	prof, err := witch.Run(mustWorkload("listing3"), witch.Options{
		Tool: witch.DeadStores, Period: 97, Seed: o.Seed,
	})
	if err != nil {
		return fmt.Errorf("ingest: workload profile: %w", err)
	}
	pairs := len(prof.TopPairs(0))
	fmt.Fprintf(w, "%d pushers x %d batches each, 1 binary profile/batch (%d pairs), best of %d runs/mode, GOMAXPROCS=%d\n",
		pushers, perPusher, pairs, 3*reps, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "loopback transport (no kernel TCP); every acked batch is on disk before its 200\n\n")

	// The committer linger (-commit-delay) trades ack latency for gang
	// size: 0 means gangs only capture what queued during the previous
	// fsync, a positive linger lets the committer wait out the gang-fill
	// time (≈ pushers × per-batch CPU). The experiment tunes it the way
	// an operator would: sweep a small grid and report the best
	// operating point. fsync=always has no knob; it gets the same
	// number of runs so best-of is fair on a noisy box.
	grid := []time.Duration{
		0,
		time.Duration(pushers) * 25 * time.Microsecond,
		time.Duration(pushers) * 50 * time.Microsecond,
	}
	modes := []struct {
		label  string
		group  bool
		delays []time.Duration
	}{
		{"fsync=always", false, []time.Duration{0, 0, 0}},
		{"fsync=group", true, grid},
	}
	type modeResult struct {
		Label         string  `json:"label"`
		CommitDelayMS float64 `json:"commit_delay_ms"`
		Batches       int     `json:"batches"`
		Seconds       float64 `json:"seconds"`
		BatchesPerSec float64 `json:"batches_per_sec"`
		MeanGang      float64 `json:"mean_commit_gang"`
		Speedup       float64 `json:"speedup_vs_always"`
	}
	results := make([]modeResult, 0, len(modes))
	for _, m := range modes {
		best, bestDelay := time.Duration(0), time.Duration(0)
		var bestCommits uint64
		for _, delay := range m.delays {
			for r := 0; r < reps; r++ {
				elapsed, commits, err := runIngestMode(prof, pushers, perPusher, m.group, delay)
				if err != nil {
					return fmt.Errorf("ingest: %s: %w", m.label, err)
				}
				if best == 0 || elapsed < best {
					best, bestDelay, bestCommits = elapsed, delay, commits
				}
			}
		}
		n := pushers * perPusher
		results = append(results, modeResult{
			Label:         m.label,
			CommitDelayMS: float64(bestDelay) / float64(time.Millisecond),
			Batches:       n,
			Seconds:       best.Seconds(),
			BatchesPerSec: float64(n) / best.Seconds(),
			MeanGang:      float64(n) / float64(bestCommits),
		})
	}
	always, group := &results[0], &results[1]
	tbl := report.NewTable("", "mode", "linger", "acked batches", "elapsed", "batches/s", "gang", "vs always")
	for i := range results {
		results[i].Speedup = results[i].BatchesPerSec / always.BatchesPerSec
		r := results[i]
		tbl.Row(r.Label, fmt.Sprintf("%.1fms", r.CommitDelayMS),
			fmt.Sprint(r.Batches),
			report.Dur(time.Duration(r.Seconds*float64(time.Second))),
			report.F(r.BatchesPerSec, 0), report.F(r.MeanGang, 1), report.X(r.Speedup))
	}
	tbl.Fprint(w)

	// Micro: allocations per ingested pair through the decode path, and
	// per merged profile into a store partition, measured live so the
	// numbers in the report (and BENCH_ingest.json) match this build.
	// The richer h264ref profile (~11 pairs) matches the codec
	// micro-benchmarks in witch/codec_bench_test.go.
	mprof, err := witch.Run(mustWorkload("h264ref"), witch.Options{
		Tool: witch.DeadStores, Period: 97, Seed: o.Seed,
	})
	if err != nil {
		return err
	}
	mpairs := len(mprof.TopPairs(0))
	var jsonBody bytes.Buffer
	if err := mprof.WriteJSON(&jsonBody); err != nil {
		return err
	}
	binBody := mprof.AppendBinary(nil)
	var dec witch.BatchDecoder
	perPair := func(allocs float64) float64 { return allocs / float64(mpairs) }
	baselineJSON := perPair(benchAllocs(func() {
		if _, err := witch.ReadProfileJSON(bytes.NewReader(jsonBody.Bytes())); err != nil {
			panic(err)
		}
	}))
	pooledJSON := perPair(benchAllocs(func() {
		if _, err := dec.Decode(jsonBody.Bytes()); err != nil {
			panic(err)
		}
	}))
	pooledBinary := perPair(benchAllocs(func() {
		if _, err := dec.Decode(binBody); err != nil {
			panic(err)
		}
	}))
	var part agg.Partition // one store partition: base State plus write buffer
	mergeAllocs := benchAllocs(func() { part.Merge(mprof) })

	fmt.Fprintln(w)
	mtbl := report.NewTable(fmt.Sprintf("decode/merge allocation profile (h264ref, %d pairs)", mpairs),
		"path", "allocs/pair", "vs baseline")
	mtbl.Row("ReadProfileJSON (baseline)", report.F(baselineJSON, 2), report.X(1))
	mtbl.Row("BatchDecoder json (pooled)", report.F(pooledJSON, 2), report.X(pooledJSON/baselineJSON))
	mtbl.Row("BatchDecoder binary (pooled)", report.F(pooledBinary, 2), report.X(pooledBinary/baselineJSON))
	mtbl.Fprint(w)
	fmt.Fprintf(w, "partition merge: %.2f allocs per re-merged profile\n", mergeAllocs)

	// Gates: these are the PR's acceptance criteria, enforced the same
	// way the chaos experiment enforces its degradation bound.
	fmt.Fprintf(w, "\ngroup commit speedup %s (gate: >=%.0fx)\n", report.X(group.Speedup), minSpeedup)
	if group.Speedup < minSpeedup {
		// Name the gangs: a gang near 1 under group commit means the
		// disk answered fsyncs faster than the pushers could fill one,
		// which is a property of the disk, not of the commit path.
		return fmt.Errorf("ingest: group commit speedup %.2fx below the %.0fx gate "+
			"(mean_commit_gang: fsync=always %.1f, fsync=group %.1f at linger %.1fms)",
			group.Speedup, minSpeedup, always.MeanGang, group.MeanGang, group.CommitDelayMS)
	}
	// The ≥50% allocation cut comes from the binary wire format (the
	// encoding every Pusher sends); the pooled JSON path (curl, older
	// spool entries) is capped by encoding/json's internal allocations,
	// so it gates on "no worse than the pre-PR decoder" instead.
	if pooledBinary > 0.5*baselineJSON {
		return fmt.Errorf("ingest: binary decode at %.2f allocs/pair, not half of baseline %.2f",
			pooledBinary, baselineJSON)
	}
	if pooledJSON > baselineJSON {
		return fmt.Errorf("ingest: pooled json decode at %.2f allocs/pair regressed over baseline %.2f",
			pooledJSON, baselineJSON)
	}
	if mergeAllocs > 1 {
		return fmt.Errorf("ingest: partition re-merge allocates %.2f per profile, want amortized zero", mergeAllocs)
	}

	if !o.Quick {
		doc := struct {
			Experiment string       `json:"experiment"`
			GoMaxProcs int          `json:"gomaxprocs"`
			Pushers    int          `json:"pushers"`
			PerPusher  int          `json:"batches_per_pusher"`
			PairsPer   int          `json:"pairs_per_profile"`
			Modes      []modeResult `json:"modes"`
			Decode     struct {
				BaselineJSON float64 `json:"baseline_json_allocs_per_pair"`
				PooledJSON   float64 `json:"pooled_json_allocs_per_pair"`
				PooledBinary float64 `json:"pooled_binary_allocs_per_pair"`
			} `json:"decode"`
			MergeAllocs float64 `json:"merge_allocs_per_profile"`
		}{
			Experiment: "ingest", GoMaxProcs: runtime.GOMAXPROCS(0),
			Pushers: pushers, PerPusher: perPusher, PairsPer: pairs,
			Modes: results, MergeAllocs: mergeAllocs,
		}
		doc.Decode.BaselineJSON = baselineJSON
		doc.Decode.PooledJSON = pooledJSON
		doc.Decode.PooledBinary = pooledBinary
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_ingest.json", append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("ingest: write BENCH_ingest.json: %w", err)
		}
		fmt.Fprintln(w, "wrote BENCH_ingest.json")
	}
	fmt.Fprintln(w)
	return nil
}

// loopback is an http.RoundTripper that dispatches requests straight
// into a handler, reusing its response scratch across requests. One
// instance serves one pusher: the pusher's sender is serial, so the
// previous response is fully consumed before the next RoundTrip.
type loopback struct {
	h    http.Handler
	body bytes.Buffer
	rd   bytes.Reader
	resp http.Response
	code int
	hdr  http.Header
}

func (t *loopback) Header() http.Header         { return t.hdr }
func (t *loopback) WriteHeader(code int)        { t.code = code }
func (t *loopback) Write(p []byte) (int, error) { return t.body.Write(p) }

func (t *loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	t.code = http.StatusOK
	t.body.Reset()
	t.hdr = make(http.Header, 2)
	t.h.ServeHTTP(t, req)
	t.rd.Reset(t.body.Bytes())
	t.resp = http.Response{
		StatusCode: t.code, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: t.hdr, Body: io.NopCloser(&t.rd), Request: req,
		ContentLength: int64(t.body.Len()),
	}
	return &t.resp, nil
}

// runIngestMode boots one durable daemon and drives it with concurrent
// pushers, returning the wall time from first push to last ack. Every
// pusher must deliver every batch — a drop or retry exhaustion fails
// the run rather than flattering the number.
func runIngestMode(prof *witch.Profile, pushers, perPusher int, group bool, delay time.Duration) (time.Duration, uint64, error) {
	dir, err := os.MkdirTemp("", "witch-ingest-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	node, err := daemon.OpenNode(daemon.NodeConfig{
		Server:  daemon.Config{MaxInflight: 2 * pushers},
		DataDir: dir,
		Journal: wal.Options{GroupCommit: group, MaxCommitDelay: delay},
	})
	if err != nil {
		return 0, 0, err
	}
	handler := node.Handler()

	errc := make(chan error, pushers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := witch.NewPusher(witch.PusherOptions{
				URL: "http://witchd.loopback", Queue: perPusher,
				Backoff: time.Millisecond,
				Client:  &http.Client{Transport: &loopback{h: handler}},
			})
			if err != nil {
				errc <- err
				return
			}
			for j := 0; j < perPusher; j++ {
				if !p.Push(prof) {
					p.Close()
					errc <- fmt.Errorf("push %d rejected", j)
					return
				}
			}
			p.Close() // blocks until the queue drains
			if s := p.Stats(); s.Sent != uint64(perPusher) {
				errc <- fmt.Errorf("pusher delivered %d/%d (dropped %d)", s.Sent, perPusher, s.Dropped)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	commits := node.JournalCommits()
	close(errc)
	for err := range errc {
		return 0, 0, err
	}
	if got, want := node.Server().StoreStats().Ingested, uint64(pushers*perPusher); got != want {
		return 0, 0, fmt.Errorf("daemon ingested %d profiles, want %d", got, want)
	}
	if err := node.Drain(context.Background()); err != nil {
		return 0, 0, fmt.Errorf("shutdown: %w", err)
	}
	return elapsed, commits, nil
}

// benchAllocs measures steady-state allocations per call of fn using the
// testing package's benchmark driver (so the report's numbers and `go
// test -bench` agree on methodology).
func benchAllocs(fn func()) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	})
	return float64(r.AllocsPerOp())
}
