// Package machine implements the simulated CPU that stands in for native
// execution in this Witch reproduction: an interpreter for the internal/isa
// instruction set with byte-addressable sparse memory, per-thread register
// files and call stacks, a round-robin scheduler, a Last Branch Record
// ring, per-thread virtualized PMU counters and debug registers, and a
// faithful model of Linux signal delivery — including the signal frame
// written onto the interrupted thread's stack, which is what makes the
// Figure 3 sigaltstack corner case reproducible.
//
// Instrumentation tools (the exhaustive DeadSpy/RedSpy/LoadSpy baselines)
// attach an Observer and see every retired access; sampling tools (Witch)
// attach nothing and rely on the PMU and debug registers only, which is
// exactly the overhead asymmetry Table 1 of the paper measures.
package machine

import (
	"fmt"

	"repro/internal/hwdebug"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pmu"
)

// Config controls machine construction.
type Config struct {
	// NumDebugRegs is the number of hardware debug registers per thread
	// (4 on real x86; Figure 5 sweeps 1..4).
	NumDebugRegs int
	// StackBytes is the size of each thread's stack region.
	StackBytes uint64
	// SignalFrameBytes is how many bytes the simulated kernel scribbles
	// below the stack pointer when delivering a signal.
	SignalFrameBytes uint64
	// Quantum is the scheduler time slice in instructions.
	Quantum uint64
	// MaxSteps aborts runaway programs; 0 means no limit.
	MaxSteps uint64
	// MaxCallDepth bounds the call stack (a stack-overflow guard for
	// runaway recursion); default 1<<16 frames.
	MaxCallDepth int
	// ShadowSampling enables the PEBS shadow bias on all PMU units.
	ShadowSampling bool
	// LBRSize is the Last Branch Record depth (16 on Nehalem+).
	LBRSize int
}

// defaults fills zero fields.
func (c *Config) defaults() {
	if c.NumDebugRegs == 0 {
		c.NumDebugRegs = 4
	}
	if c.StackBytes == 0 {
		c.StackBytes = 1 << 20
	}
	if c.SignalFrameBytes == 0 {
		c.SignalFrameBytes = 192
	}
	if c.Quantum == 0 {
		c.Quantum = 4096
	}
	if c.LBRSize == 0 {
		c.LBRSize = 16
	}
	if c.MaxCallDepth == 0 {
		c.MaxCallDepth = 1 << 16
	}
}

// Access describes one retired memory operation as seen by an Observer.
type Access struct {
	Kind  pmu.AccessKind
	PC    isa.PC
	Addr  uint64
	Width uint8
	Value uint64 // bits loaded or stored
	Float bool
}

// Observer receives every retired access plus call/return edges, which is
// what exhaustive shadow-memory tools instrument. A nil observer costs one
// branch per access.
type Observer interface {
	OnAccess(t *Thread, acc *Access)
	OnCall(t *Thread, callee int32, callSite isa.PC)
	OnRet(t *Thread)
}

// Branch is one LBR entry: a taken control transfer.
type Branch struct {
	From, To isa.PC
}

// Frame is one activation record on a thread's call stack.
type Frame struct {
	FuncIdx  int32
	CallSite isa.PC // PC of the call instruction in the caller
	RetPC    isa.PC // where ret resumes
}

// SampleHandler receives PMU samples with the owning thread.
type SampleHandler func(t *Thread, s pmu.Sample)

// TrapHandler receives watchpoint exceptions with the owning thread.
type TrapHandler func(t *Thread, tr hwdebug.Trap)

// Thread is one simulated software thread.
type Thread struct {
	ID    int
	Regs  [isa.NumRegs]uint64
	PC    isa.PC
	Stack []Frame

	PMU   *pmu.Unit
	Watch *hwdebug.Unit

	lbr    []Branch
	lbrLen int
	lbrPos int

	halted bool
	m      *Machine

	// Stack region bounds: [StackLimit, StackTop). SP starts at StackTop.
	StackTop   uint64
	StackLimit uint64

	// UseAltStack routes signal frames to a dedicated region
	// (sigaltstack); AltStackTop is its ceiling.
	UseAltStack bool
	AltStackTop uint64

	sigDepth int

	// Per-thread retirement statistics.
	Instrs, Loads, Stores uint64
}

// Halted reports whether the thread has executed halt or returned from its
// entry function.
func (t *Thread) Halted() bool { return t.halted }

// Depth returns the current call-stack depth.
func (t *Thread) Depth() int { return len(t.Stack) }

// Frames returns the live call stack (do not mutate).
func (t *Thread) Frames() []Frame { return t.Stack }

// SP returns the current stack pointer register.
func (t *Thread) SP() uint64 { return t.Regs[isa.SP] }

// LBR returns the recorded taken branches, oldest first.
func (t *Thread) LBR() []Branch {
	out := make([]Branch, 0, t.lbrLen)
	start := t.lbrPos - t.lbrLen
	for i := 0; i < t.lbrLen; i++ {
		out = append(out, t.lbr[(start+i+len(t.lbr))%len(t.lbr)])
	}
	return out
}

// LastBranch returns the most recent taken branch and whether one exists.
func (t *Thread) LastBranch() (Branch, bool) {
	if t.lbrLen == 0 {
		return Branch{}, false
	}
	return t.lbr[(t.lbrPos-1+len(t.lbr))%len(t.lbr)], true
}

func (t *Thread) recordBranch(from, to isa.PC) {
	t.lbr[t.lbrPos] = Branch{From: from, To: to}
	if t.lbrPos++; t.lbrPos == len(t.lbr) {
		t.lbrPos = 0
	}
	if t.lbrLen < len(t.lbr) {
		t.lbrLen++
	}
}

// branchTo records a taken branch from instruction idx of function fn to
// the branch's target instruction in the same function and returns the
// target's index.
func (t *Thread) branchTo(fn, idx int, target int64) int {
	to := int(uint32(target))
	t.recordBranch(isa.MakePC(fn, idx), isa.MakePC(fn, to))
	return to
}

// Machine executes a program.
type Machine struct {
	Prog    *isa.Program
	Mem     *mem.Memory
	Threads []*Thread
	cfg     Config

	observer Observer

	samplerEvent  pmu.Event
	samplerPeriod uint64
	onSample      SampleHandler
	onTrap        TrapHandler

	steps uint64

	// base address for the next thread's stack region.
	nextStackTop uint64
}

// stack regions live high in the address space, one per thread, with an
// unmapped guard gap between them.
const stackCeiling = 0x7fff_0000_0000

// New builds a machine for prog with one initial thread at the entry
// function.
func New(prog *isa.Program, cfg Config) *Machine {
	cfg.defaults()
	m := &Machine{
		Prog:         prog,
		Mem:          mem.New(),
		cfg:          cfg,
		nextStackTop: stackCeiling,
	}
	m.SpawnThread(prog.Entry)
	return m
}

// Config returns the machine's effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// SpawnThread creates a thread starting at function entry and returns it.
func (m *Machine) SpawnThread(entry int) *Thread {
	id := len(m.Threads)
	top := m.nextStackTop
	m.nextStackTop -= m.cfg.StackBytes + 1<<20 // guard gap
	altTop := m.nextStackTop
	m.nextStackTop -= 1 << 16 // alt-stack region + gap

	t := &Thread{
		ID:          id,
		PC:          isa.MakePC(entry, 0),
		PMU:         pmu.NewUnit(id),
		Watch:       hwdebug.NewUnit(id, m.cfg.NumDebugRegs),
		lbr:         make([]Branch, m.cfg.LBRSize),
		StackTop:    top,
		StackLimit:  top - m.cfg.StackBytes,
		AltStackTop: altTop,
		m:           m,
	}
	t.PMU.Shadow = m.cfg.ShadowSampling
	t.Regs[isa.SP] = top
	// Convention: R1 carries the thread ID at thread start, so one entry
	// function can partition work across threads (the multi-threaded
	// workloads rely on this).
	t.Regs[isa.R1] = uint64(id)
	t.Stack = append(t.Stack, Frame{FuncIdx: int32(entry)})
	if m.samplerEvent != pmu.EventNone {
		m.wireSampler(t)
	}
	m.Threads = append(m.Threads, t)
	return t
}

// SetObserver attaches exhaustive instrumentation (may be nil to detach).
func (m *Machine) SetObserver(o Observer) { m.observer = o }

// AttachSampler programs every thread's PMU for the event and period and
// installs the sample handler (delivered signal-style).
func (m *Machine) AttachSampler(event pmu.Event, period uint64, h SampleHandler) {
	m.samplerEvent, m.samplerPeriod, m.onSample = event, period, h
	for _, t := range m.Threads {
		m.wireSampler(t)
	}
}

func (m *Machine) wireSampler(t *Thread) {
	th := t
	th.PMU.Configure(m.samplerEvent, m.samplerPeriod, func(s pmu.Sample) {
		m.deliverSignal(th, func() {
			if m.onSample != nil {
				m.onSample(th, s)
			}
		})
	})
	th.PMU.Enable()
}

// SetTrapHandler installs the watchpoint exception handler on every thread
// (delivered signal-style).
func (m *Machine) SetTrapHandler(h TrapHandler) {
	m.onTrap = h
	for _, t := range m.Threads {
		th := t
		th.Watch.SetHandler(func(tr hwdebug.Trap) {
			m.deliverSignal(th, func() {
				if m.onTrap != nil {
					m.onTrap(th, tr)
				}
			})
		})
	}
}

// SetAltStack enables or disables the alternate signal stack on all
// threads (the sigaltstack fix from §5 / Figure 3c).
func (m *Machine) SetAltStack(on bool) {
	for _, t := range m.Threads {
		t.UseAltStack = on
	}
}

// deliverSignal simulates kernel signal delivery: it writes the signal
// frame to the thread's current stack (or the alternate stack), then runs
// the handler. Frame writes are kernel writes: they do not count PMU
// events, but they do hit armed watchpoints — the Figure 3 hazard — unless
// the frame lands on the alternate stack. Nested delivery (a frame write
// trapping a watchpoint inside another delivery) is bounded.
func (m *Machine) deliverSignal(t *Thread, handler func()) {
	base := t.Regs[isa.SP]
	if t.UseAltStack {
		base = t.AltStackTop - uint64(t.sigDepth)*m.cfg.SignalFrameBytes
	}
	t.sigDepth++
	lo := base - m.cfg.SignalFrameBytes
	// The kernel scribbles register state into the frame, 8 bytes at a
	// time. Each write may spuriously trigger a watchpoint.
	for a := lo; a+8 <= base; a += 8 {
		m.Mem.StoreN(a, a^0x51f0_51f0, 8)
		if t.sigDepth <= 2 {
			t.Watch.Check(hwdebug.Store, a, 8, a, false, t.PC, true)
		}
	}
	handler()
	t.sigDepth--
}

// Steps returns total retired instructions across threads.
func (m *Machine) Steps() uint64 { return m.steps }

// Footprint returns the native resident memory of the program: touched
// pages plus fixed machine state. Tool bloat is measured against this.
func (m *Machine) Footprint() uint64 {
	const perThread = 4096 // registers, frames, LBR
	return m.Mem.Footprint() + uint64(len(m.Threads))*perThread
}

// Run executes all threads round-robin, one quantum at a time, until
// every thread halts. It returns an error on invalid programs or when
// MaxSteps is exceeded.
func (m *Machine) Run() error {
	for {
		live := false
		for _, t := range m.Threads {
			if t.halted {
				continue
			}
			live = true
			if err := m.runQuantum(t); err != nil {
				return err
			}
		}
		if !live {
			return nil
		}
		if m.cfg.MaxSteps != 0 && m.steps > m.cfg.MaxSteps {
			return fmt.Errorf("machine: exceeded max steps %d", m.cfg.MaxSteps)
		}
	}
}

// funcCode returns function fn's code, or nil when fn is out of range so
// that the next fetch reports the invalid PC.
func funcCode(funcs []*isa.Function, fn int) []isa.Instr {
	if uint(fn) < uint(len(funcs)) {
		return funcs[fn].Code
	}
	return nil
}

// runQuantum is the retire loop: it retires up to one quantum of t's
// instructions, stopping early when t halts. The current function's code
// is held in a local and refreshed only on call and return, and the PC
// lives in (fn, idx). Before every callout (observer, watchpoints, PMU)
// and on exit, t.PC and the retirement counters are written back, so
// handlers see the retiring instruction's PC as before.
func (m *Machine) runQuantum(t *Thread) error {
	funcs := m.Prog.Funcs
	fn, idx := t.PC.Func(), t.PC.Index()
	code := funcCode(funcs, fn)
	r := &t.Regs
	// The retired-instruction counters are kept as q, the count retired
	// in this quantum so far, and synced before every callout and exit.
	instrs0, steps0 := t.Instrs, m.steps
	sync := func(q uint64) { t.Instrs, m.steps = instrs0+q, steps0+q }
	// ibs caches t.PMU.NeedsAllRetired(); only a callout can change it.
	ibs := t.PMU.NeedsAllRetired()
	quantum := m.cfg.Quantum
	for q := uint64(1); q <= quantum; q++ {
		if uint(idx) >= uint(len(code)) {
			sync(q - 1)
			t.PC = isa.MakePC(fn, idx)
			return fmt.Errorf("machine: thread %d: invalid PC %v", t.ID, t.PC)
		}
		in := &code[idx]
		next := idx + 1

		switch in.Op {
		case isa.OpNop:
		case isa.OpMovImm, isa.OpFMovImm:
			r[in.Dst] = uint64(in.Imm)
		case isa.OpMov:
			r[in.Dst] = r[in.A]
		case isa.OpAdd:
			r[in.Dst] = r[in.A] + r[in.B]
		case isa.OpAddImm:
			r[in.Dst] = r[in.A] + uint64(in.Imm)
		case isa.OpSub:
			r[in.Dst] = r[in.A] - r[in.B]
		case isa.OpMul:
			r[in.Dst] = r[in.A] * r[in.B]
		case isa.OpMulImm:
			r[in.Dst] = r[in.A] * uint64(in.Imm)
		case isa.OpDiv:
			if r[in.B] == 0 {
				r[in.Dst] = 0
			} else {
				r[in.Dst] = r[in.A] / r[in.B]
			}
		case isa.OpMod:
			if r[in.B] == 0 {
				r[in.Dst] = 0
			} else {
				r[in.Dst] = r[in.A] % r[in.B]
			}
		case isa.OpAnd:
			r[in.Dst] = r[in.A] & r[in.B]
		case isa.OpOr:
			r[in.Dst] = r[in.A] | r[in.B]
		case isa.OpXor:
			r[in.Dst] = r[in.A] ^ r[in.B]
		case isa.OpShl:
			r[in.Dst] = r[in.A] << (uint64(in.Imm) & 63)
		case isa.OpShr:
			r[in.Dst] = r[in.A] >> (uint64(in.Imm) & 63)
		case isa.OpFAdd:
			r[in.Dst] = isa.F64Bits(isa.F64(r[in.A]) + isa.F64(r[in.B]))
		case isa.OpFSub:
			r[in.Dst] = isa.F64Bits(isa.F64(r[in.A]) - isa.F64(r[in.B]))
		case isa.OpFMul:
			r[in.Dst] = isa.F64Bits(isa.F64(r[in.A]) * isa.F64(r[in.B]))
		case isa.OpFDiv:
			r[in.Dst] = isa.F64Bits(isa.F64(r[in.A]) / isa.F64(r[in.B]))

		case isa.OpLoad:
			addr := r[in.A] + uint64(in.Imm)
			val := m.Mem.LoadN(addr, in.Width)
			r[in.Dst] = val
			t.Loads++
			if m.observer == nil && !t.Watch.MayTrap(addr, in.Width) && t.PMU.CountQuiet(pmu.Load) {
				idx = next
				continue
			}
			sync(q)
			t.PC = isa.MakePC(fn, idx)
			m.retireAccess(t, pmu.Load, t.PC, isa.MakePC(fn, next), addr, in.Width, val, in.Float, in.Latency)
			ibs = t.PMU.NeedsAllRetired()
			idx = next
			continue
		case isa.OpStore:
			addr := r[in.A] + uint64(in.Imm)
			val := r[in.B]
			if in.Width < 8 {
				val &= (1 << (8 * uint64(in.Width))) - 1
			}
			m.Mem.StoreN(addr, val, in.Width)
			t.Stores++
			if m.observer == nil && !t.Watch.MayTrap(addr, in.Width) && t.PMU.CountQuiet(pmu.Store) {
				idx = next
				continue
			}
			sync(q)
			t.PC = isa.MakePC(fn, idx)
			m.retireAccess(t, pmu.Store, t.PC, isa.MakePC(fn, next), addr, in.Width, val, in.Float, in.Latency)
			ibs = t.PMU.NeedsAllRetired()
			idx = next
			continue

		case isa.OpJmp:
			next = t.branchTo(fn, idx, in.Imm)
		case isa.OpBeq:
			if r[in.A] == r[in.B] {
				next = t.branchTo(fn, idx, in.Imm)
			}
		case isa.OpBne:
			if r[in.A] != r[in.B] {
				next = t.branchTo(fn, idx, in.Imm)
			}
		case isa.OpBlt:
			if int64(r[in.A]) < int64(r[in.B]) {
				next = t.branchTo(fn, idx, in.Imm)
			}
		case isa.OpBle:
			if int64(r[in.A]) <= int64(r[in.B]) {
				next = t.branchTo(fn, idx, in.Imm)
			}
		case isa.OpBgt:
			if int64(r[in.A]) > int64(r[in.B]) {
				next = t.branchTo(fn, idx, in.Imm)
			}
		case isa.OpBge:
			if int64(r[in.A]) >= int64(r[in.B]) {
				next = t.branchTo(fn, idx, in.Imm)
			}
		case isa.OpCall:
			pc := isa.MakePC(fn, idx)
			if len(t.Stack) >= m.cfg.MaxCallDepth {
				sync(q)
				t.PC = pc
				return fmt.Errorf("machine: thread %d: call stack overflow (%d frames) at %v", t.ID, len(t.Stack), pc)
			}
			callee := isa.MakePC(int(in.Fn), 0)
			t.Stack = append(t.Stack, Frame{FuncIdx: in.Fn, CallSite: pc, RetPC: isa.MakePC(fn, next)})
			t.recordBranch(pc, callee)
			if m.observer != nil {
				sync(q)
				t.PC = pc
				m.observer.OnCall(t, in.Fn, pc)
				ibs = t.PMU.NeedsAllRetired()
			}
			fn, next = callee.Func(), 0
			code = funcCode(funcs, fn)
		case isa.OpRet:
			pc := isa.MakePC(fn, idx)
			if len(t.Stack) <= 1 {
				t.halted = true
				sync(q)
				t.PC = pc
				if m.observer != nil {
					m.observer.OnRet(t)
				}
				return nil
			}
			fr := t.Stack[len(t.Stack)-1]
			t.Stack = t.Stack[:len(t.Stack)-1]
			t.recordBranch(pc, fr.RetPC)
			if m.observer != nil {
				sync(q)
				t.PC = pc
				m.observer.OnRet(t)
				ibs = t.PMU.NeedsAllRetired()
			}
			fn, next = fr.RetPC.Func(), fr.RetPC.Index()
			code = funcCode(funcs, fn)
		case isa.OpHalt:
			t.halted = true
			sync(q)
			t.PC = isa.MakePC(fn, idx)
			return nil
		default:
			sync(q)
			t.PC = isa.MakePC(fn, idx)
			return fmt.Errorf("machine: thread %d: bad opcode %v at %v", t.ID, in.Op, t.PC)
		}

		// IBS-style sampling counts every retired instruction, not just
		// memory operations (memory ops are counted inside retireAccess).
		if ibs {
			t.PMU.CountNonMem()
		}
		idx = next
	}
	sync(quantum)
	t.PC = isa.MakePC(fn, idx)
	return nil
}

// retireAccess runs the post-retirement pipeline for a memory operation:
// exhaustive observer, then armed watchpoints (traps fire after execution,
// and a watchpoint armed *during* this access's own sample delivery must
// not see this access — hence watchpoints are checked before the PMU),
// then the PMU counter.
func (m *Machine) retireAccess(t *Thread, kind pmu.AccessKind, pc, next isa.PC, addr uint64, width uint8, val uint64, float bool, latency uint8) {
	if m.observer != nil {
		acc := Access{Kind: kind, PC: pc, Addr: addr, Width: width, Value: val, Float: float}
		m.observer.OnAccess(t, &acc)
	}
	if t.Watch.MayTrap(addr, width) {
		t.Watch.Check(hwdebug.AccessKind(kind), addr, width, val, float, next, false)
	}
	t.PMU.CountMemOp(kind, pc, addr, width, val, float, latency)
}
