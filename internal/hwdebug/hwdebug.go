// Package hwdebug models x86-style hardware debug registers used as data
// watchpoints. A small, fixed number of registers (four on real x86; the
// count is configurable here so Figure 5's one-to-four sweep can run) each
// monitor an address range and trap the CPU when an instruction accesses
// it. Matching x86 semantics that the Witch client tools depend on:
//
//   - The trap fires *after* the access retires, so on a store trap the
//     monitored memory already holds the stored value (SilentCraft reads
//     it to compare against its snapshot).
//   - Only break-on-write (W_TRAP) and break-on-read-or-write (RW_TRAP)
//     conditions exist; there is no break-on-load, which is why LoadCraft
//     must use RW_TRAP and discard spurious store traps.
//   - The exception reports the PC of the *next* instruction (contextPC);
//     recovering the precise trapping PC requires disassembly help (the
//     LBR fast path in internal/perfevent).
//
// Registers are virtualized per software thread (§6.3): a watchpoint armed
// by one thread never traps in another.
package hwdebug

import "repro/internal/isa"

// Kind is the trap condition of a watchpoint.
type Kind uint8

// Trap conditions.
const (
	WTrap  Kind = iota // trap on write
	RWTrap             // trap on read or write
)

// String returns "W_TRAP" or "RW_TRAP".
func (k Kind) String() string {
	if k == WTrap {
		return "W_TRAP"
	}
	return "RW_TRAP"
}

// Watchpoint is one debug register's programming.
type Watchpoint struct {
	Active bool
	Addr   uint64
	Len    uint8 // monitored range length in bytes (1..8)
	Kind   Kind
	// Cookie carries client state (Witch attaches the sampled context,
	// snapshot value, etc.). Hardware has no such field; it lives in the
	// perf_event layer on real systems.
	Cookie any
	// ArmedAt is the sample sequence number at arm time (bookkeeping for
	// blind-spot statistics).
	ArmedAt uint64
}

// Trap describes a watchpoint exception.
type Trap struct {
	Reg        int        // debug register index that fired
	WP         Watchpoint // programming at fire time (including Cookie)
	Kind       AccessKind // access kind that caused the trap
	ContextPC  isa.PC     // PC of the *next* instruction (x86 trap-after)
	Addr       uint64     // effective address of the trapping access
	Width      uint8
	Value      uint64 // post-access memory bits for the accessed range
	Float      bool
	Overlap    uint8 // bytes of overlap between access and watchpoint
	ThreadID   int
	KernelView bool // access came from the simulated kernel (signal-frame write), i.e. a spurious trap in the Figure 3 sense
}

// AccessKind aliases pmu's kind to avoid an import cycle; 0=load, 1=store.
type AccessKind uint8

// Access kinds.
const (
	Load  AccessKind = 0
	Store AccessKind = 1
)

// String returns "load" or "store".
func (k AccessKind) String() string {
	if k == Store {
		return "store"
	}
	return "load"
}

// Handler receives watchpoint exceptions, delivered like signals.
type Handler func(Trap)

// Unit is one thread's set of virtualized debug registers.
type Unit struct {
	regs    []Watchpoint
	armed   int // count of active registers, for a fast skip
	handler Handler

	// [lo, hi) bounds the ranges of all active registers (lo > hi when
	// none is active), so MayTrap rejects a clear miss with two compares.
	lo, hi uint64

	// reserved marks registers held by an external agent (a debugger or
	// another profiling tool, the classic perf_event_open EBUSY cause);
	// arming a reserved register fails until it is released.
	reserved []bool

	threadID int
	// Traps counts delivered exceptions (excluding kernel-view spurious
	// ones), used by overhead accounting and tests.
	Traps uint64
	// Spurious counts kernel-view (signal-frame) triggers.
	Spurious uint64
}

// NewUnit returns a unit with n debug registers for the given thread.
func NewUnit(threadID, n int) *Unit {
	if n <= 0 {
		n = 4
	}
	return &Unit{regs: make([]Watchpoint, n), reserved: make([]bool, n), threadID: threadID, lo: ^uint64(0)}
}

// Reserve marks register i as held by an external agent: subsequent Arm
// calls on it fail (EBUSY) until Release. Reserving does not disturb a
// currently-armed watchpoint, matching how a late-attaching tool contends
// only for free registers.
func (u *Unit) Reserve(i int) { u.reserved[i] = true }

// Release returns register i to the pool.
func (u *Unit) Release(i int) { u.reserved[i] = false }

// Reserved reports whether register i is held externally.
func (u *Unit) Reserved(i int) bool { return u.reserved[i] }

// SetHandler installs the exception handler.
func (u *Unit) SetHandler(h Handler) { u.handler = h }

// NumRegs returns the number of debug registers.
func (u *Unit) NumRegs() int { return len(u.regs) }

// Armed returns how many registers are currently active.
func (u *Unit) Armed() int { return u.armed }

// Reg returns a copy of register i's programming.
func (u *Unit) Reg(i int) Watchpoint { return u.regs[i] }

// FreeReg returns the index of an inactive register, or -1.
func (u *Unit) FreeReg() int {
	for i := range u.regs {
		if !u.regs[i].Active {
			return i
		}
	}
	return -1
}

// Arm programs register i. Length is clamped to 1..8 as on real hardware.
// Arming a reserved register is a no-op (the perfevent layer reports the
// EBUSY to its caller before ever arming; this guard keeps a direct Arm
// from clobbering an externally-held register).
func (u *Unit) Arm(i int, addr uint64, length uint8, kind Kind, cookie any, armedAt uint64) {
	if u.reserved[i] {
		return
	}
	if length == 0 {
		length = 1
	}
	if length > 8 {
		length = 8
	}
	if !u.regs[i].Active {
		u.armed++
	}
	u.regs[i] = Watchpoint{Active: true, Addr: addr, Len: length, Kind: kind, Cookie: cookie, ArmedAt: armedAt}
	u.rebound()
}

// Disarm deactivates register i.
func (u *Unit) Disarm(i int) {
	if u.regs[i].Active {
		u.armed--
	}
	u.regs[i] = Watchpoint{}
	u.rebound()
}

// DisarmAll deactivates every register.
func (u *Unit) DisarmAll() {
	for i := range u.regs {
		u.regs[i] = Watchpoint{}
	}
	u.armed = 0
	u.rebound()
}

// rebound recomputes the bounding range of the active registers.
func (u *Unit) rebound() {
	u.lo, u.hi = ^uint64(0), 0
	for i := range u.regs {
		wp := &u.regs[i]
		if !wp.Active {
			continue
		}
		u.lo = min(u.lo, wp.Addr)
		u.hi = max(u.hi, wp.Addr+uint64(wp.Len))
	}
}

// MayTrap is Check's inlinable guard: false means an access of width
// bytes at addr overlaps no active register, so Check would deliver
// nothing. True only means Check must look.
func (u *Unit) MayTrap(addr uint64, width uint8) bool {
	return addr < u.hi && addr+uint64(width) > u.lo
}

// overlap returns the byte overlap of [a1,a1+l1) and [a2,a2+l2).
func overlap(a1 uint64, l1 uint8, a2 uint64, l2 uint8) uint8 {
	lo := a1
	if a2 > lo {
		lo = a2
	}
	hi := a1 + uint64(l1)
	if h2 := a2 + uint64(l2); h2 < hi {
		hi = h2
	}
	if hi <= lo {
		return 0
	}
	return uint8(hi - lo)
}

// Check tests a retired access against all armed registers and delivers an
// exception for each match. contextPC is the PC of the instruction *after*
// the access (what the signal context exposes on x86). kernel marks
// accesses performed by the simulated kernel while writing a signal frame;
// those still trigger watchpoints (that is precisely the Figure 3 hazard)
// but are tallied separately. Returns the number of traps delivered.
func (u *Unit) Check(kind AccessKind, addr uint64, width uint8, value uint64, float bool, contextPC isa.PC, kernel bool) int {
	if u.armed == 0 {
		return 0
	}
	fired := 0
	for i := range u.regs {
		wp := &u.regs[i]
		if !wp.Active {
			continue
		}
		if wp.Kind == WTrap && kind != Store {
			continue
		}
		ov := overlap(addr, width, wp.Addr, wp.Len)
		if ov == 0 {
			continue
		}
		tr := Trap{
			Reg: i, WP: *wp, Kind: kind, ContextPC: contextPC,
			Addr: addr, Width: width, Value: value, Float: float,
			Overlap: ov, ThreadID: u.threadID, KernelView: kernel,
		}
		fired++
		if kernel {
			u.Spurious++
		} else {
			u.Traps++
		}
		if u.handler != nil {
			u.handler(tr)
		}
	}
	return fired
}
