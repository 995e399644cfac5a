// Package witch implements the paper's primary contribution: a lightweight
// framework that observes a program's consecutive accesses to the same
// memory location by pairing PMU samples with hardware debug registers.
//
// On each precise PMU sample the framework interns the sampled calling
// context, offers the triplet ⟨C_watch, M, AccessType⟩ to the client tool,
// and — subject to the reservoir replacement scheme that §4.1 introduces to
// overcome the fixed number of debug registers — arms a watchpoint at M.
// When the program next touches M the watchpoint traps; the framework
// recovers the precise trapping PC, interns ⟨C_trap⟩, computes the
// proportional attribution scale of §4.2, and hands the trap to the client,
// which classifies it as waste or use and charges the ordered context pair.
//
// Clients (the "witchcraft" tools — DeadCraft, SilentCraft, LoadCraft and
// the false-sharing extension) live in internal/craft.
package witch

import (
	"math"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/cct"
	"repro/internal/fault"
	"repro/internal/hwdebug"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/perfevent"
	"repro/internal/pmu"
)

// Policy selects the watchpoint replacement strategy when all debug
// registers are busy. The paper's contribution is the reservoir policy;
// the other two are the strawmen §4.1 argues against and exist so the
// Figure 2 experiment can show why they fail.
type Policy uint8

// Replacement policies.
const (
	// PolicyReservoir gives every sample since a register was last free
	// the same N/k survival probability (the paper's scheme).
	PolicyReservoir Policy = iota
	// PolicyReplaceOldest always evicts the oldest armed watchpoint.
	PolicyReplaceOldest
	// PolicyCoinFlip arms each new sample with probability 1/2, evicting
	// a random victim.
	PolicyCoinFlip
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyReplaceOldest:
		return "replace-oldest"
	case PolicyCoinFlip:
		return "coin-flip"
	default:
		return "reservoir"
	}
}

// Config controls a Profiler. The zero value (plus a Period) is full
// Witch: reservoir replacement, proportional attribution, fast watchpoint
// replacement, LBR precise-PC recovery, and an alternate signal stack;
// the Disable* fields exist for the paper's ablation experiments.
type Config struct {
	// Period is the PMU sampling period (events per sample).
	Period uint64
	// Policy is the replacement policy (default reservoir).
	Policy Policy
	// Seed feeds the deterministic PRNG driving replacement decisions.
	Seed int64

	// DisableProportional turns off context-sensitive proportional
	// attribution (§4.2); each trap then represents exactly one sample.
	DisableProportional bool
	// DisableFastModify falls back to close+reopen when reprogramming a
	// watchpoint (pre-IOC_MODIFY_ATTRIBUTES kernels).
	DisableFastModify bool
	// DisableLBR recovers precise PCs by disassembling from the function
	// entry instead of the last LBR branch target.
	DisableLBR bool
	// DisableAltStack delivers profiling signals on the application
	// stack, re-exposing the Figure 3 spurious-trap hazard.
	DisableAltStack bool
	// IBS switches the PMU to AMD-style instruction-based sampling: the
	// period counts all retired instructions and overflows tagging
	// non-matching instructions are dropped (§3 notes Witch ports to
	// IBS directly).
	IBS bool

	// Faults injects substrate failures (EBUSY arms, Modify fallbacks,
	// ring overflow, dropped sample signals, LBR outages). The zero
	// plan is provably inert: no injector is built and every fault
	// branch in the substrate is skipped.
	Faults fault.Plan
}

// Arm-failure degradation parameters: a sample retries a failed arm a
// bounded number of times (real Witch retries perf_event_open a couple of
// times before giving the sample up), a failing register backs off for
// exponentially more samples between attempts, and after enough
// consecutive failures the register is considered externally held (a
// debugger or another tool owns it) and is removed from the rotation.
const (
	maxArmAttempts  = 3
	deadRegStreak   = 3
	maxBackoffShift = 6 // backoff caps at 2^6 samples
)

// Sample is the framework's view of one PMU sample, offered to the client.
type Sample struct {
	Kind   pmu.AccessKind
	PC     isa.PC
	Addr   uint64
	Width  uint8
	Value  uint64
	Float  bool
	Thread *machine.Thread
	// Ctx is C_watch: the interned calling context of the sample.
	Ctx *cct.Node
}

// ArmRequest is the client's answer to a sample: whether to watch, what
// trap condition to use, and optionally a derived address/length (a client
// may watch an address derived from the sampled one; footnote 1 in §4).
type ArmRequest struct {
	Arm    bool
	Kind   hwdebug.Kind
	Addr   uint64 // 0 means the sampled address
	Len    uint8  // 0 means the sampled access width
	Cookie any    // returned verbatim in the trap
}

// TrapAction is the client's answer to a trap.
type TrapAction uint8

// Trap actions.
const (
	// ActionDisarm frees the debug register (and resets the reservoir
	// probability to 1, per §4.1).
	ActionDisarm TrapAction = iota
	// ActionKeep leaves the watchpoint armed (hardware watchpoints
	// persist across traps); LoadCraft uses this to ignore the spurious
	// store traps RW_TRAP produces.
	ActionKeep
)

// Trap is the framework's view of one watchpoint exception.
type Trap struct {
	Kind      pmu.AccessKind
	ContextPC isa.PC // PC after the access, as the signal context shows
	PrecisePC isa.PC // recovered trapping PC
	Addr      uint64
	Width     uint8
	Value     uint64 // post-access memory bits
	Float     bool
	Overlap   uint8 // overlapping bytes between access and watchpoint
	Thread    *machine.Thread

	// WatchAddr/WatchLen/Cookie echo the arm-time programming; WatchCtx
	// is C_watch and Ctx is C_trap.
	WatchAddr uint64
	WatchLen  uint8
	Cookie    any
	WatchCtx  *cct.Node
	Ctx       *cct.Node

	// Spurious marks a kernel signal-frame write hitting the watchpoint
	// (the Figure 3 hazard; only occurs with DisableAltStack).
	Spurious bool

	// scaleBytes is (μ−η)·Period, the number of events one attributed
	// byte of this trap stands for. It is computed lazily on the first
	// attribution so that traps the client drops (e.g. LoadCraft's
	// spurious store traps) do not consume the watch context's
	// accumulated samples.
	scaleBytes float64
	scaled     bool
	fromSame   int
	pair       *cct.Node
	p          *Profiler
}

// Scale returns the events-per-byte attribution factor for this trap,
// computing the proportional catch-up (η ← μ) on first call. When PMU
// overflow signals have been lost (dropped or coalesced delivery), each
// delivered sample stands for proportionally more events, so the scale
// is inflated by (delivered+lost)/delivered — folding the drop
// accounting into the §4.2 μ/η machinery keeps total attribution
// unbiased under sample loss. With zero losses the factor is exactly 1
// and is never applied.
func (tr *Trap) Scale() float64 {
	if tr.scaled {
		return tr.scaleBytes
	}
	tr.scaled = true
	represented := 1.0
	if !tr.p.cfg.DisableProportional {
		if d := (tr.WatchCtx.Mu - tr.WatchCtx.Eta) / float64(tr.fromSame); d > 1 {
			represented = d
		}
		tr.WatchCtx.Eta += represented
	}
	tr.scaleBytes = represented * float64(tr.p.cfg.Period)
	if lost := tr.p.lostSignals(); lost > 0 {
		if delivered := tr.p.stats.Samples; delivered > 0 {
			tr.scaleBytes *= float64(delivered+lost) / float64(delivered)
		}
	}
	return tr.scaleBytes
}

// pairNode lazily interns the synthetic ⟨C_watch, C_trap⟩ chain.
func (tr *Trap) pairNode() *cct.Node {
	if tr.pair == nil {
		tr.pair = tr.p.tree.PairNode(tr.WatchCtx, tr.Ctx)
	}
	return tr.pair
}

// AttributeWaste charges bytes of wasted work (scaled) to the pair.
func (tr *Trap) AttributeWaste(bytes float64) {
	tr.pairNode().Waste += bytes * tr.Scale()
}

// AttributeUse charges bytes of useful work (scaled) to the pair.
func (tr *Trap) AttributeUse(bytes float64) {
	tr.pairNode().Use += bytes * tr.Scale()
}

// Client is a witchcraft tool.
type Client interface {
	// Name identifies the tool in reports.
	Name() string
	// Event selects the precise PMU event driving sampling.
	Event() pmu.Event
	// OnSample is called on every PMU sample with ⟨C_watch, M,
	// AccessType⟩; the return value controls watchpoint arming.
	OnSample(s *Sample) ArmRequest
	// OnTrap is called when an armed watchpoint fires with ⟨C_trap, M,
	// AccessType⟩ and the arm-time cookie.
	OnTrap(tr *Trap) TrapAction
}

// armRecord is the profiler's bookkeeping for one debug register.
type armRecord struct {
	active   bool
	fd       *perfevent.WatchFD
	addr     uint64
	length   uint8
	kind     hwdebug.Kind
	cookie   any
	watchCtx *cct.Node

	// Degradation state: consecutive arm failures on this register, the
	// sample count before which it is in backoff, and whether it has
	// been written off as externally held.
	failStreak int
	retryAt    uint64
	dead       bool
}

// threadState is per-thread profiler state.
type threadState struct {
	t    *machine.Thread
	regs []armRecord
	// k counts samples since a debug register was last empty (§4.1).
	k uint64
	// rr is the replace-oldest rotor.
	rr int
	// effective counts registers not yet written off as dead; the
	// reservoir invariant is maintained over this shrunken N.
	effective int
	// blind-spot tracking: current and max runs of unmonitored samples.
	curBlind, maxBlind uint64
	samples            uint64
}

// Stats aggregates framework-level counters.
type Stats struct {
	Samples       uint64
	Monitored     uint64 // samples that armed a watchpoint
	Traps         uint64
	SpuriousTraps uint64
	MaxBlindSpot  uint64 // longest run of unmonitored samples (any thread)
	Opens         uint64 // watchpoint fd opens
	Closes        uint64
	Modifies      uint64
	DisasmInstrs  uint64 // instructions decoded for precise-PC recovery
}

// Health reports how honestly the profile can be trusted: every counter
// is zero and every flag false on a fault-free run, and a degraded run
// says exactly which substrate failures it absorbed and how. The
// framework degrades rather than dies — retrying failed arms with
// deterministic backoff, shrinking the effective debug-register set
// (with the §4.1 reservoir reset so the N/k invariant holds for the
// registers that remain), and rescaling attribution for lost sample
// signals — and Health is the record of those adaptations.
type Health struct {
	// SignalsLost counts PMU overflow signals that never reached the
	// profiler (dropped/coalesced delivery). Attribution is rescaled by
	// (delivered+lost)/delivered so the metric stays unbiased.
	SignalsLost uint64
	// RingLost counts trap records lost to ring-buffer overflow before
	// they ever landed (the kernel wrapped first). Overwrite-mode loss of
	// already-consumed trap history is not counted here — it costs the
	// profile nothing — but remains visible in the session's RingLost
	// stat.
	RingLost uint64
	// ArmFailures counts samples abandoned after exhausting arm retries;
	// ArmRetries counts the extra attempts that preceded success or
	// abandonment.
	ArmFailures uint64
	ArmRetries  uint64
	// ModifyFallbacks counts Modify calls forced onto the close+reopen
	// slow path; LBROutages counts precise-PC recoveries that had to
	// disassemble from the function entry.
	ModifyFallbacks uint64
	LBROutages      uint64

	// ConfiguredRegs is the per-thread debug-register count the run was
	// configured with; EffectiveRegs is the smallest count any thread
	// ended with after writing off busy registers.
	ConfiguredRegs int
	EffectiveRegs  int

	// Degraded-mode flags.
	RegistersShrunk bool // some thread lost registers at runtime
	SampleLoss      bool // signal drops forced attribution rescaling
	Degraded        bool // any of the above, or any counter nonzero
}

// degraded reports whether any degradation was observed.
func (h *Health) degraded() bool {
	return h.RegistersShrunk || h.SampleLoss ||
		h.SignalsLost > 0 || h.RingLost > 0 || h.ArmFailures > 0 ||
		h.ArmRetries > 0 || h.ModifyFallbacks > 0 || h.LBROutages > 0
}

// Result is what a profiling run produces.
type Result struct {
	Tool   string
	Tree   *cct.Tree
	Waste  float64
	Use    float64
	Stats  Stats
	Health Health

	// WallTime is the monitored execution's wall-clock time; ToolBytes
	// is the profiler-attributable resident memory (CCT + rings + arm
	// state); both feed Table 1/2 overhead accounting.
	WallTime  time.Duration
	ToolBytes uint64

	// Native machine counters for rate computations.
	Instrs, Loads, Stores uint64
}

// Redundancy returns the paper's Equation 1 metric
// D = Σwaste / (Σwaste + Σuse), in [0,1].
func (r *Result) Redundancy() float64 {
	if r.Waste+r.Use == 0 {
		return 0
	}
	return r.Waste / (r.Waste + r.Use)
}

// BlindSpotFrac returns the largest blind-spot window as a fraction of all
// samples (§4.1 reports <0.02% typical, 0.5% worst case).
func (r *Result) BlindSpotFrac() float64 {
	if r.Stats.Samples == 0 {
		return 0
	}
	return float64(r.Stats.MaxBlindSpot) / float64(r.Stats.Samples)
}

// Profiler runs one client tool over one machine.
type Profiler struct {
	cfg    Config
	m      *machine.Machine
	sess   *perfevent.Session
	tree   *cct.Tree
	client Client
	rng    *rand.Rand
	states map[int]*threadState
	stats  Stats
	faults *fault.Injector
	health Health
}

// NearestPrime returns the prime closest to n (ties go down). The paper's
// evaluation uses the nearest prime to each nominal sampling interval —
// the recommended practice in PMU sampling — because a composite period
// can resonate with loop structure: e.g. an even period sampling an
// alternating two-store loop body only ever sees one of the two lines.
func NearestPrime(n uint64) uint64 {
	if n < 3 {
		return 2
	}
	for delta := uint64(0); ; delta++ {
		if delta < n && isPrime(n-delta) {
			return n - delta
		}
		if delta <= math.MaxUint64-n && isPrime(n+delta) {
			return n + delta
		}
	}
}

// mrBases are the Miller–Rabin witnesses that decide primality for
// every 64-bit integer (the first twelve primes).
var mrBases = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// isPrime is deterministic Miller–Rabin over mrBases: O(log x)
// multiplications per base where trial division needed O(√x)
// divisions.
func isPrime(x uint64) bool {
	if x < 2 {
		return false
	}
	for _, p := range mrBases {
		if x%p == 0 {
			return x == p
		}
	}
	r := bits.TrailingZeros64(x - 1)
	d := (x - 1) >> r
	for _, a := range mrBases {
		y := powMod(a, d, x)
		if y == 1 || y == x-1 {
			continue
		}
		for i := 1; i < r && y != x-1; i++ {
			y = mulMod(y, y, x)
		}
		if y != x-1 {
			return false
		}
	}
	return true
}

// mulMod is a·b mod m without overflow, through the 128-bit product.
func mulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, m)
}

// powMod is a^e mod m by square-and-multiply.
func powMod(a, e, m uint64) uint64 {
	out := uint64(1)
	for a %= m; e > 0; e >>= 1 {
		if e&1 == 1 {
			out = mulMod(out, a, m)
		}
		a = mulMod(a, a, m)
	}
	return out
}

// NewProfiler wires a profiler to a machine. The machine must not have
// run yet. The configured period is rounded to the nearest prime, as in
// the paper's evaluation.
func NewProfiler(m *machine.Machine, client Client, cfg Config) *Profiler {
	if cfg.Period == 0 {
		cfg.Period = 1000
	}
	cfg.Period = NearestPrime(cfg.Period)
	p := &Profiler{
		cfg:    cfg,
		m:      m,
		client: client,
		tree:   cct.New(m.Prog),
		rng:    rand.New(rand.NewSource(cfg.Seed + 1)),
		states: make(map[int]*threadState),
		faults: fault.NewInjector(cfg.Faults), // nil for the zero plan
	}
	p.sess = perfevent.NewSession(m, perfevent.Options{
		FastModify: !cfg.DisableFastModify,
		UseLBR:     !cfg.DisableLBR,
		Faults:     p.faults,
	})
	m.SetAltStack(!cfg.DisableAltStack)
	p.sess.OpenSampling(client.Event(), cfg.Period, p.handleSample)
	p.sess.SetTrapDispatch(p.handleTrap)
	// Seed-dependent sampling phase: runs with different seeds observe
	// different sample points, as real runs do (§7 stability).
	for _, t := range m.Threads {
		t.PMU.Skew(p.rng.Uint64())
		if cfg.IBS {
			t.PMU.Mode = pmu.ModeIBS
		}
		if p.faults != nil {
			t.PMU.DropSignal = func() bool { return p.faults.Should(fault.SignalDrop) }
		}
	}
	return p
}

// Tree exposes the profiler's CCT (for reports and tests).
func (p *Profiler) Tree() *cct.Tree { return p.tree }

// state returns (creating) the per-thread state.
func (p *Profiler) state(t *machine.Thread) *threadState {
	st := p.states[t.ID]
	if st == nil {
		n := t.Watch.NumRegs()
		st = &threadState{t: t, regs: make([]armRecord, n), effective: n}
		p.states[t.ID] = st
	}
	return st
}

// handleSample implements the §4 sample flow and §4.1 reservoir scheme.
func (p *Profiler) handleSample(t *machine.Thread, s pmu.Sample) {
	st := p.state(t)
	st.samples++
	p.stats.Samples++
	st.k++

	ctx := p.tree.NodeForContext(t.Frames(), s.PC)
	if !p.cfg.DisableProportional {
		ctx.Mu++
	}

	req := p.client.OnSample(&Sample{
		Kind: s.Kind, PC: s.PC, Addr: s.Addr, Width: s.Width,
		Value: s.Value, Float: s.Float, Thread: t, Ctx: ctx,
	})
	monitored := false
	if req.Arm {
		monitored = p.tryArm(t, st, ctx, &s, req)
	}
	if monitored {
		p.stats.Monitored++
		st.curBlind = 0
	} else {
		st.curBlind++
		if st.curBlind > st.maxBlind {
			st.maxBlind = st.curBlind
			if st.maxBlind > p.stats.MaxBlindSpot {
				p.stats.MaxBlindSpot = st.maxBlind
			}
		}
	}
}

// freeReg returns the first register that is inactive and currently
// armable (not dead, not in backoff), or -1. With no degradation this is
// exactly hwdebug's first-inactive scan.
func (st *threadState) freeReg() int {
	for i := range st.regs {
		rec := &st.regs[i]
		if !rec.active && !rec.dead && rec.retryAt <= st.samples {
			return i
		}
	}
	return -1
}

// victims returns the registers eligible for policy replacement: the
// currently-armed ones. Dead and backed-off registers hold no watchpoint
// and are not victims. With no degradation this is every register
// (freeReg already returned -1), preserving the fault-free behaviour bit
// for bit.
func (st *threadState) victims() []int {
	out := make([]int, 0, len(st.regs))
	for i := range st.regs {
		if st.regs[i].active {
			out = append(out, i)
		}
	}
	return out
}

// tryArm applies the replacement policy and programs a debug register,
// degrading gracefully when the substrate refuses: a bounded number of
// retries per sample, exponential per-register backoff across samples,
// and after deadRegStreak consecutive failures the register is written
// off and the reservoir restarts over the registers that remain.
func (p *Profiler) tryArm(t *machine.Thread, st *threadState, ctx *cct.Node, s *pmu.Sample, req ArmRequest) bool {
	n := st.effective
	if n == 0 {
		// Fully degraded: every register is externally held. The run
		// continues unmonitored and Health says so.
		return false
	}
	reg := st.freeReg()
	if reg < 0 {
		victims := st.victims()
		if len(victims) == 0 {
			// No free register and nothing armed to replace (all
			// candidates are backing off); skip this sample.
			return false
		}
		switch p.cfg.Policy {
		case PolicyReplaceOldest:
			for !st.regs[st.rr].active {
				st.rr = (st.rr + 1) % len(st.regs)
			}
			reg = st.rr
			st.rr = (st.rr + 1) % len(st.regs)
		case PolicyCoinFlip:
			if p.rng.Intn(2) == 0 {
				return false
			}
			reg = victims[p.rng.Intn(len(victims))]
		default: // reservoir: survive with probability N/k over live regs
			if st.k > uint64(n) && p.rng.Float64() >= float64(n)/float64(st.k) {
				return false
			}
			reg = victims[p.rng.Intn(len(victims))]
		}
	}
	addr, length := req.Addr, req.Len
	if addr == 0 {
		addr = s.Addr
	}
	if length == 0 {
		length = s.Width
	}
	rec := &st.regs[reg]
	var err error
	for attempt := 0; attempt < maxArmAttempts; attempt++ {
		if attempt > 0 {
			p.health.ArmRetries++
		}
		if rec.fd != nil {
			// Modify's injected failure path closes the old fd before
			// reopening, so on error rec.fd correctly becomes nil.
			rec.fd, err = rec.fd.Modify(addr, length, req.Kind, req.Cookie, s.Seq)
		} else {
			rec.fd, err = p.sess.CreateWatchpoint(t, reg, addr, length, req.Kind, req.Cookie, s.Seq)
		}
		if err == nil {
			rec.failStreak = 0
			rec.active = true
			rec.addr, rec.length, rec.kind = addr, length, req.Kind
			rec.cookie = req.Cookie
			rec.watchCtx = ctx
			return true
		}
	}
	// Retries exhausted (EBUSY persisted): the sample goes unmonitored
	// and the register backs off — deterministically, doubling per
	// consecutive failure — before it is tried again. A register that
	// keeps failing is externally held; write it off.
	p.health.ArmFailures++
	rec.active = false
	rec.failStreak++
	if rec.failStreak >= deadRegStreak {
		p.disableReg(st, reg)
	} else {
		shift := rec.failStreak
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		rec.retryAt = st.samples + (uint64(1) << shift)
	}
	return false
}

// disableReg removes a register from the rotation after persistent arm
// failures. The reservoir count k resets so §4.1's N/k survival invariant
// holds exactly for the N′ registers that remain.
func (p *Profiler) disableReg(st *threadState, i int) {
	rec := &st.regs[i]
	if rec.dead {
		return
	}
	if rec.fd != nil {
		rec.fd.Close()
		rec.fd = nil
	}
	rec.active = false
	rec.dead = true
	st.effective--
	st.k = 0
	p.health.RegistersShrunk = true
}

// handleTrap implements the §4 trap flow and §4.2 proportional scaling.
func (p *Profiler) handleTrap(t *machine.Thread, tr hwdebug.Trap) {
	st := p.state(t)
	rec := &st.regs[tr.Reg]
	if !rec.active {
		// A trap racing a replacement of the same register; drop it.
		return
	}
	if tr.KernelView {
		p.stats.SpuriousTraps++
	} else {
		p.stats.Traps++
	}
	// The kernel appends a PERF_RECORD_SAMPLE-style record to the
	// event's ring buffer on every trap (§5); tools that want raw trap
	// history can drain it.
	rec.fd.RecordTrap(tr, p.stats.Traps)

	precise := tr.ContextPC
	if !tr.KernelView {
		if pc, err := p.sess.PrecisePC(t, tr.ContextPC); err == nil {
			precise = pc
		}
	}
	trapCtx := p.tree.NodeForContext(t.Frames(), precise)

	// Proportional attribution (§4.2): this trap stands for the samples
	// its watch context accumulated since the last trap there, split
	// across watchpoints simultaneously armed from that context. The
	// catch-up itself happens lazily in Trap.Scale.
	fromSame := 0
	for i := range st.regs {
		if st.regs[i].active && st.regs[i].watchCtx == rec.watchCtx {
			fromSame++
		}
	}
	if fromSame == 0 {
		fromSame = 1
	}

	info := &Trap{
		Kind:      pmu.AccessKind(tr.Kind),
		ContextPC: tr.ContextPC,
		PrecisePC: precise,
		Addr:      tr.Addr, Width: tr.Width, Value: tr.Value, Float: tr.Float,
		Overlap: tr.Overlap, Thread: t,
		WatchAddr: rec.addr, WatchLen: rec.length, Cookie: rec.cookie,
		WatchCtx: rec.watchCtx, Ctx: trapCtx,
		Spurious: tr.KernelView,
		fromSame: fromSame,
		p:        p,
	}
	if p.client.OnTrap(info) == ActionDisarm {
		rec.fd.Disarm()
		rec.active = false
		// Reservoir probability resets to 1 (§4.1): the next sample
		// finds a free register and is monitored for certain.
		st.k = 0
	}
}

// lostSignals sums PMU overflow signals that never reached the profiler.
func (p *Profiler) lostSignals() uint64 {
	var n uint64
	for _, t := range p.m.Threads {
		n += t.PMU.LostSignals
	}
	return n
}

// assembleHealth finalizes the run's Health block from the profiler's
// own counters, the session's, and the per-thread register states.
func (p *Profiler) assembleHealth() Health {
	h := p.health
	sst := p.sess.Stats()
	h.SignalsLost = p.lostSignals()
	// Natural overwrite-mode loss (undrained trap history, still visible
	// in Session.Stats().RingLost) is by design and costs the profile
	// nothing: every trap was consumed synchronously before its record
	// could be overwritten. Only a record that never landed degrades the
	// run.
	h.RingLost = p.faults.Injected(fault.RingOverflow)
	h.ModifyFallbacks = sst.ModifyFallbacks
	h.LBROutages = sst.LBROutages
	h.ConfiguredRegs = p.m.Config().NumDebugRegs
	h.EffectiveRegs = h.ConfiguredRegs
	for _, st := range p.states {
		if st.effective < h.EffectiveRegs {
			h.EffectiveRegs = st.effective
		}
	}
	h.SampleLoss = h.SignalsLost > 0
	h.Degraded = h.degraded()
	return h
}

// Run executes the machine to completion under monitoring and returns the
// profile.
func (p *Profiler) Run() (*Result, error) {
	start := time.Now()
	if err := p.m.Run(); err != nil {
		return nil, err
	}
	wall := time.Since(start)

	sst := p.sess.Stats()
	p.stats.Opens, p.stats.Closes, p.stats.Modifies, p.stats.DisasmInstrs =
		sst.Opens, sst.Closes, sst.Modifies, sst.DisasmInstrs

	waste, use := p.tree.Totals()
	// Profiler-resident memory: the CCT, kernel ring buffers, and the
	// per-thread arm records.
	var armBytes uint64
	for _, st := range p.states {
		armBytes += uint64(len(st.regs)) * 64
	}
	res := &Result{
		Tool:      p.client.Name(),
		Tree:      p.tree,
		Waste:     waste,
		Use:       use,
		Stats:     p.stats,
		Health:    p.assembleHealth(),
		WallTime:  wall,
		ToolBytes: p.tree.Bytes() + p.sess.RingBytes() + armBytes,
	}
	for _, t := range p.m.Threads {
		res.Instrs += t.Instrs
		res.Loads += t.Loads
		res.Stores += t.Stores
	}
	return res, nil
}
