package machine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hwdebug"
	"repro/internal/isa"
	"repro/internal/pmu"
)

// nopObserver sees every access and does nothing. Attaching it sends
// every memory op down retireAccess, the path taken before the in-loop
// fast path existed.
type nopObserver struct{}

func (nopObserver) OnAccess(*Thread, *Access)     {}
func (nopObserver) OnCall(*Thread, int32, isa.PC) {}
func (nopObserver) OnRet(*Thread)                 {}

// fastPathProg runs the same loop on every thread over a thread-private
// block: 8-, 4- and 2-byte loads and stores, a long-latency store, a
// float store and load, a store straddling a page boundary, and a call
// whose callee loads and stores.
func fastPathProg() *isa.Program {
	b := isa.NewBuilder("fastpath")
	callee := b.Func("callee")
	callee.Load(isa.R6, isa.R3, 0x20, 8)
	callee.AddImm(isa.R6, isa.R6, 3)
	callee.Store(isa.R3, 0x28, isa.R6, 8)
	callee.Ret()
	f := b.Func("main")
	f.MulImm(isa.R3, isa.R1, 0x1000)
	f.AddImm(isa.R3, isa.R3, 0x10000) // block base: one page per thread
	f.LoopN(isa.R9, 300, func(fb *isa.FuncBuilder) {
		fb.Load(isa.R2, isa.R3, 0, 8)
		fb.Add(isa.R2, isa.R2, isa.R9)
		fb.Store(isa.R3, 0, isa.R2, 8)
		fb.Load(isa.R4, isa.R3, 4, 4)
		fb.Store(isa.R3, 0x40, isa.R4, 2)
		fb.SlowStore(isa.R3, 0x80, isa.R9, 8)
		fb.FStore(isa.R3, 0x88, isa.R2)
		fb.FLoad(isa.R5, isa.R3, 0x88)
		fb.Store(isa.R3, 0xffc, isa.R9, 8) // straddles into the next page
		fb.Load(isa.R5, isa.R3, 0xffc, 8)
		fb.Call("callee")
	})
	f.Halt()
	b.SetEntry("main")
	return b.MustBuild()
}

// runRecord is everything a run exposes to a sampling tool.
type runRecord struct {
	Samples []string
	Traps   []string
	Threads []string
	Steps   uint64
}

// fastPathCase configures one machine before it runs.
type fastPathCase struct {
	name    string
	cfg     Config
	threads int
	setup   func(m *Machine, rec *runRecord)
}

func (c fastPathCase) run(t *testing.T, observe bool) runRecord {
	t.Helper()
	m := New(fastPathProg(), c.cfg)
	for i := 1; i < c.threads; i++ {
		m.SpawnThread(m.Prog.Entry)
	}
	if observe {
		m.SetObserver(nopObserver{})
	}
	var rec runRecord
	c.setup(m, &rec)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, th := range m.Threads {
		rec.Threads = append(rec.Threads, fmt.Sprintf("t%d instrs=%d loads=%d stores=%d pc=%v regs=%v lost=%d dropped=%d samples=%d traps=%d spurious=%d lbr=%v",
			th.ID, th.Instrs, th.Loads, th.Stores, th.PC, th.Regs, th.PMU.LostSignals, th.PMU.Dropped, th.PMU.Samples(), th.Watch.Traps, th.Watch.Spurious, th.LBR()))
	}
	rec.Steps = m.Steps()
	return rec
}

// sampler records every delivered sample with the thread state its
// handler sees.
func sampler(ev pmu.Event, period uint64, rec *runRecord, m *Machine) {
	m.AttachSampler(ev, period, func(th *Thread, s pmu.Sample) {
		rec.Samples = append(rec.Samples, fmt.Sprintf("t%d seq=%d pc=%v addr=%#x val=%#x kind=%v w=%d at=%v instrs=%d steps=%d",
			s.ThreadID, s.Seq, s.PC, s.Addr, s.Value, s.Kind, s.Width, th.PC, th.Instrs, m.Steps()))
	})
}

// trapRecorder records every delivered watchpoint exception.
func trapRecorder(rec *runRecord, m *Machine) {
	m.SetTrapHandler(func(th *Thread, tr hwdebug.Trap) {
		rec.Traps = append(rec.Traps, fmt.Sprintf("t%d reg=%d kind=%v ctx=%v addr=%#x val=%#x kernel=%v instrs=%d",
			tr.ThreadID, tr.Reg, tr.Kind, tr.ContextPC, tr.Addr, tr.Value, tr.KernelView, th.Instrs))
	})
}

// TestFastPathMatchesRetireAccess runs each case with and without a
// no-op observer and requires identical samples, traps and counters:
// the in-loop fast path must be invisible.
func TestFastPathMatchesRetireAccess(t *testing.T) {
	two := Config{Quantum: 13} // quanta end mid-loop on both threads
	cases := []fastPathCase{
		{name: "no sampler", cfg: two, threads: 2, setup: func(*Machine, *runRecord) {}},
		{name: "pebs stores period 1", cfg: two, threads: 2, setup: func(m *Machine, rec *runRecord) {
			sampler(pmu.EventAllStores, 1, rec, m)
		}},
		{name: "pebs loads period 2", cfg: two, threads: 2, setup: func(m *Machine, rec *runRecord) {
			sampler(pmu.EventAllLoads, 2, rec, m)
		}},
		{name: "pebs all period 13", cfg: two, threads: 2, setup: func(m *Machine, rec *runRecord) {
			sampler(pmu.EventAllMemOps, 13, rec, m)
		}},
		{name: "skew", cfg: two, threads: 2, setup: func(m *Machine, rec *runRecord) {
			sampler(pmu.EventAllStores, 97, rec, m)
			for i, th := range m.Threads {
				th.PMU.Skew(uint64(40 + 31*i))
			}
		}},
		{name: "shadow", cfg: Config{Quantum: 13, ShadowSampling: true}, threads: 2, setup: func(m *Machine, rec *runRecord) {
			sampler(pmu.EventAllStores, 7, rec, m)
		}},
		{name: "ibs", cfg: two, threads: 2, setup: func(m *Machine, rec *runRecord) {
			sampler(pmu.EventAllLoads, 11, rec, m)
			for _, th := range m.Threads {
				th.PMU.Mode = pmu.ModeIBS
			}
		}},
		{name: "drop every other overflow", cfg: two, threads: 2, setup: func(m *Machine, rec *runRecord) {
			sampler(pmu.EventAllMemOps, 5, rec, m)
			for _, th := range m.Threads {
				drop := false
				th.PMU.DropSignal = func() bool { drop = !drop; return drop }
			}
		}},
		{name: "watchpoint on a touched address", cfg: two, threads: 2, setup: func(m *Machine, rec *runRecord) {
			sampler(pmu.EventAllStores, 29, rec, m)
			trapRecorder(rec, m)
			m.Threads[0].Watch.Arm(0, 0x10040, 2, hwdebug.RWTrap, nil, 0)
			m.Threads[1].Watch.Arm(1, 0x11028, 8, hwdebug.WTrap, nil, 0)
		}},
		{name: "watchpoints armed by samples", cfg: Config{Quantum: 4096}, threads: 2, setup: func(m *Machine, rec *runRecord) {
			// Witch's own pattern: a sample arms a register on the
			// sampled address and its trap disarms it again.
			m.AttachSampler(pmu.EventAllStores, 17, func(th *Thread, s pmu.Sample) {
				rec.Samples = append(rec.Samples, fmt.Sprintf("t%d seq=%d pc=%v addr=%#x instrs=%d", s.ThreadID, s.Seq, s.PC, s.Addr, th.Instrs))
				if r := th.Watch.FreeReg(); r >= 0 {
					th.Watch.Arm(r, s.Addr, s.Width, hwdebug.RWTrap, nil, s.Seq)
				}
			})
			m.SetTrapHandler(func(th *Thread, tr hwdebug.Trap) {
				rec.Traps = append(rec.Traps, fmt.Sprintf("t%d reg=%d ctx=%v addr=%#x kernel=%v instrs=%d", tr.ThreadID, tr.Reg, tr.ContextPC, tr.Addr, tr.KernelView, th.Instrs))
				th.Watch.Disarm(tr.Reg)
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			slow, fast := c.run(t, true), c.run(t, false)
			if !reflect.DeepEqual(slow, fast) {
				t.Fatalf("fast path diverged from retireAccess:\nslow %d samples, %d traps\n%v\nfast %d samples, %d traps\n%v",
					len(slow.Samples), len(slow.Traps), slow.Threads, len(fast.Samples), len(fast.Traps), fast.Threads)
			}
			if c.name != "no sampler" && len(fast.Samples) == 0 {
				t.Fatal("the case delivered no samples")
			}
			if c.name == "watchpoint on a touched address" && len(fast.Traps) == 0 {
				t.Fatal("the armed watchpoints never trapped")
			}
		})
	}
}
