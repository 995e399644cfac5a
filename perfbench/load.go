package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/witch"
)

// liveMix are the programs whose profiles the write stream carries:
// different crafts and programs give different pair counts per batch.
var liveMix = []string{"gcc", "mcf", "xalancbmk", "lbm", "hmmer", "omnetpp"}

// liveProfiles pre-generates the write stream's profiles with witch.Run
// at default options, quantized so merges are exact.
func liveProfiles(cfg config) ([]*witch.Profile, [][]byte, error) {
	mix := liveMix
	if cfg.tiny {
		mix = mix[:2]
	}
	var profs []*witch.Profile
	var bodies [][]byte
	for i, name := range mix {
		prog, err := witch.Workload(name)
		if err != nil {
			return nil, nil, err
		}
		for j, tool := range profileCrafts {
			p, err := witch.Run(prog, witch.Options{Tool: tool, Seed: cfg.seed*100 + int64(i*len(profileCrafts)+j)})
			if err != nil {
				return nil, nil, err
			}
			q := quantize(p)
			body, err := encode(q)
			if err != nil {
				return nil, nil, err
			}
			profs = append(profs, q)
			bodies = append(bodies, body)
		}
	}
	return profs, bodies, nil
}

// writeStream is the open-loop ingest load: batches due at a fixed rate,
// each from a seeded choice of pusher identity and pre-generated profile.
type writeStream struct {
	pushers []*witch.Pusher
	profs   []*witch.Profile
	bodies  [][]byte
	t       *tracker
	rng     *rand.Rand
	batches []*batch
	late    []float64
}

func newWriteStream(cfg config, nPushers int, urls []string) (*writeStream, error) {
	profs, bodies, err := liveProfiles(cfg)
	if err != nil {
		return nil, err
	}
	w := &writeStream{profs: profs, bodies: bodies, rng: rand.New(rand.NewSource(cfg.seed))}
	return w, w.reset(urls, nPushers, nil)
}

// run pushes at rate from now until the deadline, then closes the
// pushers, which waits until every queued batch is delivered or dropped.
func (w *writeStream) run(seconds, rate float64) {
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	w.late = openLoop(start, end, rate, func(k int, sched time.Time) {
		b := &batch{profile: w.rng.Intn(len(w.profs)), sched: sched}
		p := w.pushers[w.rng.Intn(len(w.pushers))]
		w.t.mu.Lock()
		b.pushed = time.Now()
		b.span = w.t.spans.record("gen.schedule", 0, sched, b.pushed)
		w.t.seqs[p.ID()]++
		key := batchKey{p.ID(), w.t.seqs[p.ID()]}
		w.t.byKey[key] = b
		if !p.Push(w.profs[b.profile]) {
			delete(w.t.byKey, key)
			w.t.seqs[p.ID()]--
			b.dropped = true
		}
		w.t.mu.Unlock()
		w.batches = append(w.batches, b)
	})
	closePushers(w.pushers)
}

// ackStats summarizes the batches of the stream: ack latencies from
// schedule, queue waits before the first attempt, and the acked bodies
// for the oracle. Every batch that was dropped, answered non-2xx or never
// acked is a failed operation.
type ackStats struct {
	lat, queue []float64
	split      []latency // lat, split at the Push
	acked      int
	bodies     [][]byte
}

func (w *writeStream) collect(out *outcome) ackStats {
	w.t.mu.Lock()
	defer w.t.mu.Unlock()
	var s ackStats
	out.attempted += int64(len(w.batches))
	for _, b := range w.batches {
		if b.dropped {
			out.fail("Push dropped the batch due at %s (queue full)", b.sched.Format(time.StampMicro))
			continue
		}
		if b.acked.IsZero() {
			out.fail("batch due at %s never acked (%d attempts, %d non-2xx, %d transport errors)",
				b.sched.Format(time.StampMicro), b.attempts, b.non2xx, b.transport)
			continue
		}
		if b.non2xx > 0 || b.transport > 0 {
			out.fail("batch acked after %d non-2xx answers and %d transport errors", b.non2xx, b.transport)
		}
		s.acked++
		s.lat = append(s.lat, ms(b.acked.Sub(b.sched)))
		s.split = append(s.split, latency{ms(b.pushed.Sub(b.sched)), ms(b.acked.Sub(b.pushed))})
		s.queue = append(s.queue, ms(b.firstTry.Sub(b.pushed)))
		s.bodies = append(s.bodies, w.bodies[b.profile])
		w.t.spans.record("ack", b.span, b.sched, b.acked)
	}
	return s
}

// reset starts fresh pushers and forgets the batches of a finished
// phase, so the next phase is measured on its own.
func (w *writeStream) reset(urls []string, nPushers int, spans *spanLog) error {
	t := newTracker(spans)
	ps, err := newPushers(nPushers, urls, t)
	if err != nil {
		return err
	}
	w.pushers, w.t, w.batches, w.late = ps, t, nil, nil
	return nil
}

// views lists every (tool, program) the stream writes.
func (w *writeStream) views() [][2]string {
	seen := map[[2]string]bool{}
	var out [][2]string
	for _, p := range w.profs {
		v := [2]string{p.Tool, p.Program}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0]+out[i][1] < out[j][0]+out[j][1] })
	return out
}

// checkViews are the views the oracle comparison reads: each craft's
// profile merged over every program, which covers every batch ever
// acked, seed state included, plus each written program on its own.
func checkViews(w *writeStream) [][2]string {
	var out [][2]string
	for _, t := range craftNames {
		out = append(out, [2]string{t, ""})
	}
	return append(out, w.views()...)
}

// ackMetrics fills the write stream's end-to-end numbers.
func ackMetrics(v map[string]float64, s ackStats) {
	v["ack_p50_ms"] = percentile(s.lat, 0.5)
	v["ack_p90_ms"] = percentile(s.lat, 0.9)
	v["ack_p99_ms"] = percentile(s.lat, 0.99)
}

// writeLayers fills the per-layer numbers of the ingest path from the
// traced phase: generator lateness, Pusher queueing and attempts, and the
// daemon stages from the /metrics diff.
func writeLayers(v map[string]float64, w *writeStream, s ackStats, d *metricsDiff) {
	v["gen.late_p50_ms"] = percentile(w.late, 0.5)
	v["gen.late_max_ms"] = maxOf(w.late)
	v["witch.queue_p50_ms"] = percentile(s.queue, 0.5)
	v["witch.attempt_p50_ms"] = percentile(w.t.attempt, 0.5)
	v["daemon.ingest_ms"] = d.stageMs("ingest")
	v["daemon.decode_ms"] = d.stageMs("ingest_decode")
	v["daemon.dedup_ms"] = d.stageMs("dedup")
	v["agg.merge_ms"] = d.stageMs("agg_merge")
	v["net.residual_ms"] = mean(w.t.attempt) - v["daemon.ingest_ms"]
	v["daemon.shed_frac"] = frac(d.get("witchd_ingest_shed_total"), float64(len(w.t.attempt)))
}

// setupMedian runs setup reps times, tearing down all but the last, and
// returns the last one with the median set-up time.
func setupMedian[T any](cfg config, setup func(rep int) (T, error), teardown func(T) error) (T, float64, error) {
	reps := setupReps
	if cfg.tiny {
		reps = 1
	}
	var times []float64
	var last T
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			if err := teardown(v); err != nil {
				return last, 0, err
			}
		}
		last = v
	}
	return last, percentile(times, 0.5), nil
}
