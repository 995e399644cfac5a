package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/witch"
)

// The profile workload: witch.Run, one call after another on one thread
// (a closed loop of one caller), over a fixed mix of suite programs and
// the three crafts at default options, each program's RunNative
// interleaved beside its profiled runs. The mix varies footprint (mcf,
// lbm), call depth (xalancbmk, gcc), interleaved access (h264ref) and FP
// silent stores (lbm).
var (
	profileMix    = []string{"gcc", "h264ref", "mcf", "xalancbmk", "lbm", "hmmer"}
	profileCrafts = []witch.Tool{witch.DeadStores, witch.SilentStores, witch.RedundantLoads}
)

// redundancyTolerance is how far (absolute, as a fraction of monitored
// traffic) a sampled profile's redundancy may sit from the exhaustive
// spy's ground truth. Observed gaps on the mix stay below 0.1.
const redundancyTolerance = 0.2

// sampleFreePeriod is a PMU period no program in the mix reaches: a run
// with it pays for counting but never takes a sample.
const sampleFreePeriod = 1 << 40

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

type profileCase struct {
	prog  *witch.Program
	tool  witch.Tool
	opts  witch.Options
	truth float64 // exhaustive redundancy
	ref   []byte  // fingerprint of the first profiled run
}

// setupProfile loads the mix and computes each case's ground truth.
func setupProfile(cfg config) ([]*profileCase, error) {
	mix := profileMix
	if cfg.tiny {
		mix = mix[:2]
	}
	var cases []*profileCase
	for i, name := range mix {
		prog, err := witch.Workload(name)
		if err != nil {
			return nil, err
		}
		for j, tool := range profileCrafts {
			truth, err := witch.RunExhaustive(prog, tool)
			if err != nil {
				return nil, fmt.Errorf("ground truth %s/%s: %w", name, tool, err)
			}
			cases = append(cases, &profileCase{prog: prog, tool: tool, truth: truth.Redundancy,
				opts: witch.Options{Tool: tool, Seed: cfg.seed*100 + int64(i*len(profileCrafts)+j)}})
		}
	}
	return cases, nil
}

// fingerprint is a profile's deterministic content: everything but the
// wall time.
func fingerprint(p *witch.Profile) []byte {
	meta := *p
	meta.WallTime = 0
	var buf bytes.Buffer
	witch.NewProfile(meta, p.TopPairs(0)).WriteJSONCompact(&buf)
	return buf.Bytes()
}

// profileSample is one interleaved native + profiled pair of calls.
type profileSample struct {
	c                *profileCase
	native, profiled time.Duration
	cpu              time.Duration // process CPU during the profiled call
	prof             *witch.Profile
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// profileLoop runs the mix round after round until the deadline,
// checking every profile against the case's reference and ground truth.
// The calibration kernel runs between cases, never beside a timed call.
func profileLoop(cfg config, cases []*profileCase, seconds float64, out *outcome, spans *spanLog, host *hostSpeed) []profileSample {
	var samples []profileSample
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; time.Now().Before(deadline) || round == 0; round++ {
		for _, c := range cases {
			host.between()
			t0 := time.Now()
			nst, err := c.prog.RunNative()
			t1 := time.Now()
			spans.record("machine.RunNative", 0, t0, t1)
			c0 := cpuTime()
			t1 = time.Now()
			p, perr := witch.Run(c.prog, c.opts)
			t2 := time.Now()
			cpu := cpuTime() - c0
			spans.record("witch.Run", 0, t1, t2)
			out.attempted++
			if err != nil || perr != nil {
				out.fail("%s/%s: native %v, profiled %v", c.prog.Name(), c.tool, err, perr)
				continue
			}
			if nst.Instrs != p.Instrs {
				out.fail("%s/%s: profiled run retired %d instructions, native %d", c.prog.Name(), c.tool, p.Instrs, nst.Instrs)
			}
			fp := fingerprint(p)
			if c.ref == nil {
				c.ref = fp
			} else if !bytes.Equal(fp, c.ref) {
				out.fail("%s/%s: profile differs from the first run with the same seed", c.prog.Name(), c.tool)
			}
			if d := math.Abs(p.Redundancy - c.truth); d > redundancyTolerance {
				out.fail("%s/%s: redundancy %.3f is %.3f from ground truth %.3f", c.prog.Name(), c.tool, p.Redundancy, d, c.truth)
			}
			samples = append(samples, profileSample{c: c, native: t1.Sub(t0), profiled: t2.Sub(t1), cpu: cpu, prof: p})
		}
	}
	return samples
}

// corruptProfileOracle breaks the named check's oracle for the smoke test.
func corruptProfileOracle(cfg config, cases []*profileCase) {
	switch cfg.corrupt {
	case "determinism":
		cases[0].ref = []byte("{}")
	case "truth":
		cases[0].truth += 2 * redundancyTolerance
		if cases[0].truth > 1 {
			cases[0].truth -= 4 * redundancyTolerance
		}
	}
}

func runProfile(cfg config) (*outcome, error) {
	out := newOutcome()
	cases, setupS, err := setupMedian(cfg, func(int) ([]*profileCase, error) { return setupProfile(cfg) },
		func([]*profileCase) error { return nil })
	if err != nil {
		return nil, err
	}
	corruptProfileOracle(cfg, cases)
	out.values["setup_s"] = setupS

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	host := &hostSpeed{}
	samples := profileLoop(cfg, cases, seconds, out, nil, host)
	if err := host.record(out.values); err != nil {
		return nil, err
	}
	var lat []float64
	var native, profiled time.Duration
	var instrs uint64
	for _, s := range samples {
		lat = append(lat, ms(s.profiled))
		native += s.native
		profiled += s.profiled
		instrs += s.prof.Instrs
	}
	for _, r := range roundMeans(samples, len(cases), profiledTime) {
		out.p50 = append(out.p50, latency{work: r})
	}
	out.values["p50_ms"] = p50Of(out.p50, 1)
	cpu := roundMeans(samples, len(cases), func(s profileSample) time.Duration { return s.cpu })
	out.values["cpu_us_per_op"] = percentile(cpu, 0.5) * 1e3
	out.values["p90_ms"] = percentile(lat, 0.9)
	out.values["overhead_x"] = float64(profiled) / float64(native)
	out.values["minstr_per_s"] = float64(instrs) / profiled.Seconds() / 1e6

	// Go heap after a forced GC with one profile per case of the mix held.
	held := map[*profileCase]*witch.Profile{}
	for _, s := range samples {
		held[s.c] = s.prof
	}
	samples = nil
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.values["mem_mb"] = float64(m.HeapAlloc) / 1e6
	runtime.KeepAlive(held)

	if cfg.trace {
		if err := profileLayers(cfg, cases, seconds, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// roundMeans is how the gated times are taken: the mean of one pass
// over the mix (a round), in ms, whose median over rounds is gated. The
// mix's runs differ in length by 3x, so a percentile over single runs
// jumps between programs from seed to seed; and a mean over the whole
// run follows every slow stretch of the host, which the median over
// rounds, like the median kernel time the metrics are scaled by, passes
// over.
func roundMeans(samples []profileSample, perRound int, of func(profileSample) time.Duration) []float64 {
	var rounds []float64
	var round time.Duration
	for i, s := range samples {
		round += of(s)
		if (i+1)%perRound == 0 {
			rounds = append(rounds, ms(round)/float64(perRound))
			round = 0
		}
	}
	return rounds
}

func profiledTime(s profileSample) time.Duration { return s.profiled }

// profileLayers is the traced half: the same loop with spans around every
// call, plus a sample-free witch.Run per case so the PMU's counting cost
// separates from the sample handling the default period adds.
func profileLayers(cfg config, cases []*profileCase, seconds float64, out *outcome) error {
	spans := newSpanLog()
	type acc struct {
		free, profiled time.Duration
		samples        uint64
	}
	perCase := map[*profileCase]*acc{}
	var native, free, profiled time.Duration
	var instrs uint64
	var st witch.Stats
	var toolBytes []float64
	var traced []profileSample
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		round := profileLoop(cfg, cases, 0, out, spans, nil)
		traced = append(traced, round...)
		for _, s := range round {
			t0 := time.Now()
			opts := s.c.opts
			opts.Period = sampleFreePeriod
			fp, err := witch.Run(s.c.prog, opts)
			t1 := time.Now()
			spans.record("witch.Run.sample_free", 0, t0, t1)
			out.attempted++
			if err != nil {
				out.fail("%s/%s sample-free: %v", s.c.prog.Name(), s.c.tool, err)
				continue
			}
			if fp.Stats.Samples != 0 {
				out.fail("%s/%s: sample-free period still sampled %d times", s.c.prog.Name(), s.c.tool, fp.Stats.Samples)
			}
			a := perCase[s.c]
			if a == nil {
				a = &acc{}
				perCase[s.c] = a
			}
			a.free += t1.Sub(t0)
			a.profiled += s.profiled
			a.samples += s.prof.Stats.Samples
			native += s.native
			free += t1.Sub(t0)
			profiled += s.profiled
			instrs += s.prof.Instrs
			ps := s.prof.Stats
			st.Samples += ps.Samples
			st.Monitored += ps.Monitored
			st.Traps += ps.Traps
			st.SpuriousTraps += ps.SpuriousTraps
			st.Opens += ps.Opens
			st.Modifies += ps.Modifies
			st.DisasmInstrs += ps.DisasmInstrs
			toolBytes = append(toolBytes, float64(s.prof.ToolBytes)/1024)
		}
	}
	perInstr := func(d time.Duration) float64 { return float64(d) / float64(instrs) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	v := out.values
	v["machine.ns_per_instr"] = perInstr(native)
	v["pmu.ns_per_instr"] = perInstr(free - native)
	v["witch.ns_per_sample"] = float64(profiled-free) / float64(max(st.Samples, 1))
	v["witch.samples_per_minstr"] = ratio(st.Samples*1e6, instrs)
	v["witch.monitored_frac"] = ratio(st.Monitored, st.Samples)
	v["hwdebug.traps_per_sample"] = ratio(st.Traps, st.Samples)
	v["hwdebug.spurious_trap_frac"] = ratio(st.SpuriousTraps, st.Traps)
	v["perfevent.opens_per_sample"] = ratio(st.Opens, st.Samples)
	v["perfevent.modifies_per_sample"] = ratio(st.Modifies, st.Samples)
	v["perfevent.disasm_per_trap"] = ratio(st.DisasmInstrs, st.Traps)
	v["witch.tool_kb"] = mean(toolBytes)
	// Residual: the share of profiled time the layer model leaves
	// unexplained when every case is charged its own sample-free time plus
	// the mix-wide cost per sample; what a per-sample cost does not
	// capture (trap counts, footprint) lands here.
	var residual float64
	for _, a := range perCase {
		modelled := float64(a.samples) * v["witch.ns_per_sample"]
		residual += math.Abs(float64(a.profiled-a.free) - modelled)
	}
	v["residual_frac"] = residual / float64(profiled)
	// The traced half's default-period runs, taken per round exactly as
	// the untraced half's p50_ms; the sample-free runs between them are
	// left out.
	v["trace.overhead_frac"] = percentile(roundMeans(traced, len(cases), profiledTime), 0.5)/v["p50_ms"] - 1
	return spans.write(cfg, "profile")
}
