// Package fault is a deterministic, seeded fault-injection plan for the
// simulated perf/watchpoint substrate. The real Witch runs on
// perf_event_open, debug registers, and signals, all of which fail in
// production: perf_event_open returns EBUSY when a debugger or another
// profiler holds DR0–DR3, IOC_MODIFY_ATTRIBUTES is absent on older
// kernels (forcing the §5 close+reopen slow path), perf mmap rings
// overflow and drop records, signal delivery coalesces under load, and
// LBR capture can be transiently unavailable. The simulated substrate
// cannot fail on its own, so this package supplies the failures: each
// fault class has a base rate (probability per opportunity) plus optional
// periodic burst windows where a boosted rate applies, driven by an
// independent per-class PRNG stream so enabling one class never shifts
// the injection points of another.
//
// An all-zero Plan is provably inert: Injector.Should returns false
// before touching any PRNG, and the substrate packages skip their fault
// branches entirely when no injector is installed.
package fault

import (
	"math/rand"
	"sync"
)

// Class is one injectable fault class.
type Class uint8

// Fault classes, each mapping to a real failure mode of the perf
// substrate (see docs/INTERNALS.md, "Fault model & degraded modes").
const (
	// ArmEBUSY fails watchpoint creation the way perf_event_open fails
	// with EBUSY when another tool holds the debug registers.
	ArmEBUSY Class = iota
	// ModifyFail fails PERF_EVENT_IOC_MODIFY_ATTRIBUTES (absent ioctl,
	// older kernel), forcing the close+reopen slow path.
	ModifyFail
	// RingOverflow drops a trap record as a perf mmap ring overflow
	// would, with the loss counted.
	RingOverflow
	// SignalDrop loses a PMU overflow signal (coalesced or dropped
	// delivery under load); the counter period is consumed but no sample
	// reaches the profiler.
	SignalDrop
	// LBROutage makes the Last Branch Record transiently unavailable,
	// forcing precise-PC recovery to disassemble from the function entry.
	LBROutage

	// The disk classes fail the witchd write-ahead journal the way real
	// filesystems fail, injected via the WAL's writer seam (internal/wal).

	// ShortWrite makes a journal append land only a prefix of its bytes
	// (write(2) returning n < len, as on a full or flaky disk); the WAL
	// must roll the partial frame back or refuse the ack.
	ShortWrite
	// SyncFail fails fsync after a fully-written append, so the record's
	// durability is unknown and the batch must not be acknowledged.
	SyncFail
	// TornRecord simulates a crash mid-append: a partial frame is left on
	// disk and the journal is unusable until restart, when recovery must
	// truncate the torn tail back to the last complete record.
	TornRecord
	// ENOSPC fails a journal append outright with no bytes written, as a
	// full filesystem does.
	ENOSPC

	// The network classes fail the pusher→witchd HTTP path the way real
	// networks fail, injected via the client RoundTripper seam
	// (fault.Transport) or the daemon handler seam (daemon.NodeConfig.Chaos).

	// ConnRefused fails the dial outright — daemon down or restarting,
	// nothing reaches the wire.
	ConnRefused
	// ReqTimeout times the request out client-side before any response
	// arrives; the client cannot know whether the daemon processed it.
	ReqTimeout
	// RespCorrupt garbles the response after the daemon has processed the
	// request, so a committed batch comes back unreadable.
	RespCorrupt
	// MidBodyCut disconnects mid-request-body: the daemon sees a
	// truncated upload and must reject it without merging.
	MidBodyCut
	// LostAck drops the connection after the daemon has durably committed
	// and merged the batch but before the ack reaches the client — the
	// critical exactly-once case: a naive retry double-counts.
	LostAck

	// NumClasses is the number of fault classes.
	NumClasses = int(LostAck) + 1
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ArmEBUSY:
		return "arm-ebusy"
	case ModifyFail:
		return "modify-fail"
	case RingOverflow:
		return "ring-overflow"
	case SignalDrop:
		return "signal-drop"
	case LBROutage:
		return "lbr-outage"
	case ShortWrite:
		return "short-write"
	case SyncFail:
		return "sync-fail"
	case TornRecord:
		return "torn-record"
	case ENOSPC:
		return "enospc"
	case ConnRefused:
		return "conn-refused"
	case ReqTimeout:
		return "req-timeout"
	case RespCorrupt:
		return "resp-corrupt"
	case MidBodyCut:
		return "mid-body-cut"
	case LostAck:
		return "lost-ack"
	}
	return "unknown"
}

// Plan specifies fault rates. The zero value injects nothing. Rates are
// probabilities per opportunity in [0,1]; an opportunity is one call site
// that could fail (one watchpoint create, one Modify, one ring append,
// one PMU overflow, one precise-PC recovery).
type Plan struct {
	// Seed feeds the per-class PRNG streams; plans with equal seeds and
	// rates inject at identical opportunities.
	Seed int64

	// Per-class base rates.
	ArmEBUSY     float64
	ModifyFail   float64
	RingOverflow float64
	SignalDrop   float64
	LBROutage    float64
	ShortWrite   float64
	SyncFail     float64
	TornRecord   float64
	ENOSPC       float64
	ConnRefused  float64
	ReqTimeout   float64
	RespCorrupt  float64
	MidBodyCut   float64
	LostAck      float64

	// Burst windows model correlated failure (a debugger attaching for a
	// while, a load spike coalescing signals): every BurstEvery
	// opportunities of a class, the first BurstLen opportunities use
	// BurstRate if it exceeds the base rate. BurstEvery == 0 disables
	// bursts.
	BurstEvery uint64
	BurstLen   uint64
	BurstRate  float64
}

// Uniform returns a plan injecting every perf-substrate class at the
// same rate (the disk classes stay zero — they target the witchd WAL,
// not the profiler, and have their own DiskUniform).
func Uniform(rate float64, seed int64) Plan {
	return Plan{
		Seed:     seed,
		ArmEBUSY: rate, ModifyFail: rate, RingOverflow: rate,
		SignalDrop: rate, LBROutage: rate,
	}
}

// rate returns the base rate for a class.
func (p Plan) rate(c Class) float64 {
	switch c {
	case ArmEBUSY:
		return p.ArmEBUSY
	case ModifyFail:
		return p.ModifyFail
	case RingOverflow:
		return p.RingOverflow
	case SignalDrop:
		return p.SignalDrop
	case LBROutage:
		return p.LBROutage
	case ShortWrite:
		return p.ShortWrite
	case SyncFail:
		return p.SyncFail
	case TornRecord:
		return p.TornRecord
	case ENOSPC:
		return p.ENOSPC
	case ConnRefused:
		return p.ConnRefused
	case ReqTimeout:
		return p.ReqTimeout
	case RespCorrupt:
		return p.RespCorrupt
	case MidBodyCut:
		return p.MidBodyCut
	case LostAck:
		return p.LostAck
	}
	return 0
}

// DiskUniform returns a plan injecting only the disk classes, each at
// the same rate — the knob the WAL chaos tests sweep.
func DiskUniform(rate float64, seed int64) Plan {
	return Plan{
		Seed:       seed,
		ShortWrite: rate, SyncFail: rate, TornRecord: rate, ENOSPC: rate,
	}
}

// NetUniform returns a plan injecting only the network classes, each at
// the same rate — the knob the delivery chaos experiment sweeps.
func NetUniform(rate float64, seed int64) Plan {
	return Plan{
		Seed:        seed,
		ConnRefused: rate, ReqTimeout: rate, RespCorrupt: rate,
		MidBodyCut: rate, LostAck: rate,
	}
}

// Enabled reports whether the plan can inject anything at all.
func (p Plan) Enabled() bool {
	if p.BurstEvery > 0 && p.BurstLen > 0 && p.BurstRate > 0 {
		return true
	}
	for c := Class(0); int(c) < NumClasses; c++ {
		if p.rate(c) > 0 {
			return true
		}
	}
	return false
}

// classState is one class's independent injection stream.
type classState struct {
	rng           *rand.Rand
	opportunities uint64
	injected      uint64
}

// Injector executes a Plan. A nil *Injector is valid and injects
// nothing. Safe for concurrent use: the daemon handler seam draws
// opportunities from parallel requests. Each class's stream stays
// deterministic in its own opportunity order; under concurrency the
// interleaving of opportunities onto that stream is the caller's.
type Injector struct {
	mu   sync.Mutex
	plan Plan
	cls  [NumClasses]classState
}

// NewInjector builds an injector for the plan, or nil for a disabled
// plan so callers can gate fault branches on a nil check.
func NewInjector(p Plan) *Injector {
	if !p.Enabled() {
		return nil
	}
	in := &Injector{plan: p}
	for c := range in.cls {
		// A distinct, seed-derived stream per class keeps classes
		// independent: sweeping one rate never re-times another class.
		in.cls[c].rng = rand.New(rand.NewSource(p.Seed ^ (0x9e3779b9*int64(c) + 0x7f4a7c15)))
	}
	return in
}

// Plan returns the injector's plan (zero Plan for nil).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Should consumes one opportunity of class c and reports whether to
// inject a fault there. Deterministic for a given plan: the n-th
// opportunity of a class always gets the same answer.
func (in *Injector) Should(c Class) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := &in.cls[c]
	n := st.opportunities
	st.opportunities++
	rate := in.plan.rate(c)
	if in.plan.BurstEvery > 0 && n%in.plan.BurstEvery < in.plan.BurstLen && in.plan.BurstRate > rate {
		rate = in.plan.BurstRate
	}
	if rate <= 0 {
		return false
	}
	if rate < 1 && st.rng.Float64() >= rate {
		return false
	}
	st.injected++
	return true
}

// Injected returns how many faults of class c have been injected.
func (in *Injector) Injected(c Class) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cls[c].injected
}

// Opportunities returns how many opportunities of class c were offered.
func (in *Injector) Opportunities(c Class) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cls[c].opportunities
}

// TotalInjected sums injected faults across classes.
func (in *Injector) TotalInjected() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n uint64
	for c := range in.cls {
		n += in.cls[c].injected
	}
	return n
}
