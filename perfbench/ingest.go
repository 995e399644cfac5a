package main

import (
	"fmt"
	"os"
	"time"
)

// The ingest workload: one memory-only witchd with its default flags,
// written by default-option witch.Pushers. The load is an open loop at a
// fixed rate well below saturation; batches come from many pusher
// identities that share conns() connections. It only writes.
//
// The node has no data dir. With one, a snapshot every 256 batches is
// written and synced to the checkout's disk, and in runs where that disk
// was slow the ack median doubled while CPU per ack did not move (see
// NOTES.md). The journal and snapshots are measured on the
// fleet workload, whose reads they do not dominate.
const (
	ingestRate    = 400 // batches per second
	ingestPushers = 64
)

type ingestRig struct {
	n *node
	w *writeStream
}

func (r *ingestRig) close() error {
	closePushers(r.w.pushers)
	return r.n.stop()
}

func setupIngest(cfg config, rep int) (*ingestRig, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, err
	}
	n, err := startNode(cfg, addrs[0], "", fmt.Sprintf("witchd-rep%d", rep))
	if err != nil {
		return nil, err
	}
	if err := n.waitReady(); err != nil {
		n.stop()
		return nil, err
	}
	w, err := newWriteStream(cfg, ingestPushers, []string{n.url})
	if err != nil {
		n.stop()
		return nil, err
	}
	return &ingestRig{n: n, w: w}, nil
}

func runIngest(cfg config) (*outcome, error) {
	out := newOutcome()
	rig, setupS, err := setupMedian(cfg, func(rep int) (*ingestRig, error) { return setupIngest(cfg, rep) },
		(*ingestRig).close)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			rig.n.stop()
		}
	}()
	v := out.values
	v["setup_s"] = setupS
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}

	host := measureHost()
	cpu0, err := rig.n.cpu()
	if err != nil {
		return nil, err
	}
	mem := sampleRSS([]*node{rig.n})
	rig.w.run(seconds, ingestRate)
	if err := mem.finish(v); err != nil {
		return nil, err
	}
	cpu1, err := rig.n.cpu()
	if err != nil {
		return nil, err
	}
	if err := host.record(v); err != nil {
		return nil, err
	}
	s := rig.w.collect(out)
	ackMetrics(v, s)
	v["p50_ms"], v["p90_ms"] = v["ack_p50_ms"], v["ack_p90_ms"]
	out.p50 = s.split
	v["cpu_us_per_op"] = float64((cpu1 - cpu0).Microseconds()) / float64(max(s.acked, 1))
	v["cpu_us_per_ack"] = v["cpu_us_per_op"]
	bodies := s.bodies

	if cfg.trace {
		spans := newSpanLog()
		if err := rig.w.reset([]string{rig.n.url}, ingestPushers, spans); err != nil {
			return nil, err
		}
		d, _, err := observed([]*node{rig.n}, func() error {
			rig.w.run(seconds, ingestRate)
			return nil
		})
		if err != nil {
			return nil, err
		}
		ts := rig.w.collect(out)
		writeLayers(v, rig.w, ts, d)
		if err := d.err(); err != nil {
			return nil, err
		}
		v["trace.overhead_frac"] = percentile(ts.lat, 0.5)/v["ack_p50_ms"] - 1
		v["residual_frac"] = v["net.residual_ms"] / mean(ts.lat)
		bodies = append(bodies, ts.bodies...)
		if err := spans.write(cfg, "ingest"); err != nil {
			return nil, err
		}
	}

	if cfg.corrupt == "oracle" && len(bodies) > 0 {
		bodies = bodies[1:]
	}
	t0 := time.Now()
	checks, err := oracleCheck(cfg, []*node{rig.n}, bodies, checkViews(rig.w), out)
	if err != nil {
		return nil, err
	}
	out.attempted += checks
	fmt.Fprintf(os.Stderr, "perfbench: oracle compared %d views in %.1fs\n", checks, time.Since(t0).Seconds())
	stopped = true
	return out, rig.n.stop()
}
