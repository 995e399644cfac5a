// Package pmu models a per-core performance monitoring unit with
// precise-event-based sampling (PEBS-like): a programmable counter counts
// retired memory events and, on threshold overflow, captures a precise
// snapshot of the triggering access — program counter, effective address,
// width, and value — exactly the information the Witch framework consumes
// from MEM_UOPS_RETIRED:ALL_STORES / ALL_LOADS on Intel hardware.
//
// The unit optionally reproduces the "shadow sampling" artefact of real
// PEBS hardware (§4.3 of the paper): a short-latency store retiring in the
// shadow of a long-latency store may have its sample attributed to the
// long-latency instruction, biasing samples toward long-latency ops. The
// paper blames this effect for DeadCraft/SilentCraft inaccuracy on hmmer
// and calculix; enabling Shadow on workloads with mixed latency classes
// reproduces that bias.
package pmu

import "repro/internal/isa"

// Event selects which retired events a counter counts.
type Event uint8

// Supported events, mirroring the Intel event names the paper uses.
const (
	EventNone      Event = iota
	EventAllStores       // MEM_UOPS_RETIRED:ALL_STORES
	EventAllLoads        // MEM_UOPS_RETIRED:ALL_LOADS
	EventAllMemOps       // loads + stores
)

// String returns the human-readable event name.
func (e Event) String() string {
	switch e {
	case EventAllStores:
		return "MEM_UOPS_RETIRED:ALL_STORES"
	case EventAllLoads:
		return "MEM_UOPS_RETIRED:ALL_LOADS"
	case EventAllMemOps:
		return "MEM_UOPS_RETIRED:ALL"
	}
	return "NONE"
}

// AccessKind distinguishes loads from stores.
type AccessKind uint8

// Access kinds.
const (
	Load AccessKind = iota
	Store
)

// String returns "load" or "store".
func (k AccessKind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Sample is the precise snapshot delivered on a counter overflow.
type Sample struct {
	Event    Event
	Kind     AccessKind
	PC       isa.PC // precise PC of the sampled instruction (PEBS)
	Addr     uint64 // effective address
	Width    uint8
	Value    uint64 // raw bits accessed
	Float    bool   // datum is floating point
	ThreadID int
	Seq      uint64 // monotone sample number on this unit
}

// Handler receives samples. It runs synchronously in "signal context":
// the machine delivers it like a kernel signal, after simulating the
// signal-frame write.
type Handler func(Sample)

// Mode selects the sampling mechanism.
type Mode uint8

// Sampling modes. The paper implements Witch on Intel PEBS and notes it
// is straightforward to port to AMD IBS and PowerPC MRK (§3); both
// flavours exist here.
const (
	// ModePEBS counts only the retired events of interest (loads or
	// stores) and every overflow is a usable precise sample.
	ModePEBS Mode = iota
	// ModeIBS counts *all* retired instructions and tags whichever
	// instruction the counter overflows on, AMD-style: overflows landing
	// on instructions that are not matching memory operations capture no
	// effective address and are dropped, so fewer overflows become
	// usable samples.
	ModeIBS
)

// Unit is one thread's virtualized PMU counter (debug registers and PMUs
// are per-core and virtualized per software thread; §6.3).
type Unit struct {
	event   Event
	period  uint64
	counter uint64
	handler Handler
	enabled bool

	// Mode selects PEBS- or IBS-style sampling.
	Mode Mode
	// Dropped counts IBS overflows that tagged a non-matching
	// instruction.
	Dropped uint64

	// DropSignal, when non-nil, is consulted on every counter overflow;
	// returning true loses the overflow signal (dropped or coalesced
	// delivery under load): the period's events are consumed but no
	// sample reaches the handler. LostSignals counts the losses so
	// profilers can rescale attribution (witch folds this into the μ/η
	// proportional scale) and report honest sample-loss health.
	DropSignal  func() bool
	LostSignals uint64

	// Shadow enables the PEBS shadow-sampling bias.
	Shadow bool
	// shadowLeft counts remaining retirement slots hidden behind the
	// last long-latency op; shadowed overflows report that op instead.
	shadowLeft int
	shadowOp   Sample

	threadID int
	seq      uint64
}

// NewUnit returns a disabled unit for the given thread.
func NewUnit(threadID int) *Unit { return &Unit{threadID: threadID} }

// Configure programs the counter: event, sampling period (events per
// overflow) and the overflow handler. Configuring resets the counter.
func (u *Unit) Configure(event Event, period uint64, h Handler) {
	if period == 0 {
		period = 1
	}
	u.event, u.period, u.handler = event, period, h
	u.counter = 0
}

// Skew pre-loads the counter so the first overflow arrives after
// period−(n mod period) events instead of a full period. Profilers use a
// seeded skew per run: real deployments never sample at identical phase
// across runs, and the paper's run-to-run stability experiment (§7)
// depends on that variation existing.
func (u *Unit) Skew(n uint64) {
	if u.period > 0 {
		u.counter = n % u.period
	}
}

// Enable starts counting.
func (u *Unit) Enable() { u.enabled = true }

// Disable stops counting without losing configuration.
func (u *Unit) Disable() { u.enabled = false }

// Enabled reports whether the counter is running.
func (u *Unit) Enabled() bool { return u.enabled }

// Period returns the configured sampling period.
func (u *Unit) Period() uint64 { return u.period }

// Event returns the configured event.
func (u *Unit) Event() Event { return u.event }

// Samples returns how many overflows this unit has delivered.
func (u *Unit) Samples() uint64 { return u.seq }

// matches reports whether the configured event counts the access kind.
func (u *Unit) matches(kind AccessKind) bool {
	switch u.event {
	case EventAllStores:
		return kind == Store
	case EventAllLoads:
		return kind == Load
	case EventAllMemOps:
		return true
	}
	return false
}

// NeedsAllRetired reports whether the unit must observe non-memory
// retirements too (IBS counts every instruction).
func (u *Unit) NeedsAllRetired() bool { return u.enabled && u.Mode == ModeIBS }

// CountNonMem counts a retired non-memory instruction in IBS mode; an
// overflow tagging it captures no effective address and is dropped.
func (u *Unit) CountNonMem() {
	u.counter++
	if u.counter >= u.period {
		u.counter = 0
		u.Dropped++
	}
}

// CountQuiet is CountMemOp's inlinable fast path for one retired access
// of the given kind. It returns true when it has done all CountMemOp
// would: the unit is off, a PEBS counter does not count kind, or it
// counted the access and stayed below the period. It returns false,
// touching nothing, when CountMemOp must run: the counter would
// overflow, or Shadow or IBS keeps per-access state.
func (u *Unit) CountQuiet(kind AccessKind) bool {
	if !u.enabled {
		return true
	}
	if u.Shadow || u.Mode != ModePEBS {
		return false
	}
	if !u.matches(kind) {
		return true
	}
	if u.counter+1 >= u.period {
		return false
	}
	u.counter++
	return true
}

// sample is the precise snapshot of one access.
func (u *Unit) sample(kind AccessKind, pc isa.PC, addr uint64, width uint8, value uint64, float bool) Sample {
	return Sample{
		Event: u.event, Kind: kind, PC: pc, Addr: addr,
		Width: width, Value: value, Float: float, ThreadID: u.threadID,
	}
}

// CountMemOp counts one retired memory operation and delivers a sample if
// the counter overflows. latency > 1 marks a long-latency operation that
// casts a shadow over subsequent retirements when Shadow is enabled.
// The Sample is built only on overflow (or to remember a shadowing op).
func (u *Unit) CountMemOp(kind AccessKind, pc isa.PC, addr uint64, width uint8, value uint64, float bool, latency uint8) {
	if !u.enabled {
		return
	}
	if !u.matches(kind) {
		// In IBS mode the instruction still advances the counter; a
		// tagged non-matching op is a dropped overflow.
		if u.Mode == ModeIBS {
			u.CountNonMem()
		}
		return
	}
	shadowed := false
	if u.Shadow {
		if latency > 1 {
			u.shadowOp = u.sample(kind, pc, addr, width, value, float)
			u.shadowLeft = int(latency) - 1
		} else if u.shadowLeft > 0 {
			// A short op retiring in the shadow: an overflow here is
			// attributed to the long-latency op.
			u.shadowLeft--
			shadowed = true
		}
	}
	u.counter++
	if u.counter < u.period {
		return
	}
	u.counter = 0
	if u.DropSignal != nil && u.DropSignal() {
		// The overflow happened — the period's events are gone — but the
		// signal never reached user space.
		u.LostSignals++
		return
	}
	cur := u.shadowOp
	if !shadowed {
		cur = u.sample(kind, pc, addr, width, value, float)
	}
	u.seq++
	cur.Seq = u.seq
	if u.handler != nil {
		u.handler(cur)
	}
}
