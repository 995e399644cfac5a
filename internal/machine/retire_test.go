package machine

import (
	"testing"

	"repro/internal/isa"
)

// rawProgram wraps hand-built code in a one-function program, bypassing
// the builder's validation so the retire loop's own checks are reached.
func rawProgram(code ...isa.Instr) *isa.Program {
	return &isa.Program{Funcs: []*isa.Function{{Name: "main", Code: code}}}
}

// TestRunErrors pins each error the retire loop can return: its text,
// and the thread state and counters it leaves behind.
func TestRunErrors(t *testing.T) {
	spin := func() *isa.Program {
		b := isa.NewBuilder("test")
		f := b.Func("main")
		f.Label("spin")
		f.Jmp("spin")
		return b.MustBuild()
	}
	recurse := func() *isa.Program {
		b := isa.NewBuilder("test")
		f := b.Func("main")
		f.MovImm(isa.R5, 0)
		f.Call("main")
		f.Halt()
		return b.MustBuild()
	}
	cases := []struct {
		name    string
		prog    *isa.Program
		cfg     Config
		threads int
		want    string
		pc      isa.PC
		instrs  uint64 // per thread
		steps   uint64
	}{
		{name: "fall off the end", prog: rawProgram(isa.Instr{Op: isa.OpNop}),
			want: "machine: thread 0: invalid PC f0+1", pc: isa.MakePC(0, 1), instrs: 1, steps: 1},
		{name: "jump out of range", prog: rawProgram(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpJmp, Imm: 7}),
			want: "machine: thread 0: invalid PC f0+7", pc: isa.MakePC(0, 7), instrs: 2, steps: 2},
		{name: "negative jump", prog: rawProgram(isa.Instr{Op: isa.OpJmp, Imm: -1}),
			want: "machine: thread 0: invalid PC f0+4294967295", pc: isa.MakePC(0, -1), instrs: 1, steps: 1},
		{name: "call to a missing function", prog: rawProgram(isa.Instr{Op: isa.OpCall, Fn: 5}),
			want: "machine: thread 0: invalid PC f5+0", pc: isa.MakePC(5, 0), instrs: 1, steps: 1},
		{name: "bad opcode", prog: rawProgram(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.Op(200)}),
			want: "machine: thread 0: bad opcode op(200) at f0+1", pc: isa.MakePC(0, 1), instrs: 2, steps: 2},
		{name: "max steps, two threads", prog: spin(), cfg: Config{MaxSteps: 10000}, threads: 2,
			want: "machine: exceeded max steps 10000", pc: isa.MakePC(0, 0), instrs: 2 * 4096, steps: 4 * 4096},
		{name: "max steps, three threads, short quantum", prog: spin(), cfg: Config{MaxSteps: 100, Quantum: 7}, threads: 3,
			want: "machine: exceeded max steps 100", pc: isa.MakePC(0, 0), instrs: 35, steps: 105},
		{name: "call depth", prog: recurse(), cfg: Config{MaxCallDepth: 100},
			want: "machine: thread 0: call stack overflow (100 frames) at f0+1", pc: isa.MakePC(0, 1), instrs: 200, steps: 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := New(c.prog, c.cfg)
			for i := 1; i < c.threads; i++ {
				m.SpawnThread(0)
			}
			err := m.Run()
			if err == nil || err.Error() != c.want {
				t.Fatalf("error %v, want %q", err, c.want)
			}
			th := m.Threads[0]
			if th.PC != c.pc || th.Instrs != c.instrs || m.Steps() != c.steps {
				t.Fatalf("thread 0 at %v after %d instrs, %d steps; want %v, %d, %d", th.PC, th.Instrs, m.Steps(), c.pc, c.instrs, c.steps)
			}
			if th.Halted() {
				t.Fatal("a failed thread must not be halted")
			}
		})
	}
}

// scheduleRecorder logs the global and per-thread retirement counters
// at every access, as the observer sees them mid-quantum.
type scheduleRecorder struct {
	m   *Machine
	log []retired
}

type retired struct {
	tid           int
	instrs, steps uint64
	pc            isa.PC
}

func (r *scheduleRecorder) OnAccess(t *Thread, acc *Access) {
	if acc.PC != t.PC {
		panic("observer must see the retiring instruction's PC in t.PC")
	}
	r.log = append(r.log, retired{t.ID, t.Instrs, r.m.Steps(), t.PC})
}
func (r *scheduleRecorder) OnCall(*Thread, int32, isa.PC) {}
func (r *scheduleRecorder) OnRet(*Thread)                 {}

// TestQuantumRoundRobin checks the interleaving of threads of different
// lengths against a model of the scheduler: each live thread retires a
// full quantum in turn, a halting thread gives up the rest of its
// quantum, and the counters the observer reads are current.
func TestQuantumRoundRobin(t *testing.T) {
	b := isa.NewBuilder("test")
	f := b.Func("main")
	// Thread i stores 20+7i times to its own slot.
	f.MulImm(isa.R4, isa.R1, 7)
	f.AddImm(isa.R4, isa.R4, 20)
	f.MulImm(isa.R3, isa.R1, 64)
	f.AddImm(isa.R3, isa.R3, 0x1000)
	f.MovImm(isa.R2, 0)
	f.Label("loop")
	f.Store(isa.R3, 0, isa.R2, 8)
	f.AddImm(isa.R2, isa.R2, 1)
	f.Blt(isa.R2, isa.R4, "loop")
	f.Halt()
	const quantum, threads = 5, 3
	m := New(b.MustBuild(), Config{Quantum: quantum})
	for i := 1; i < threads; i++ {
		m.SpawnThread(0)
	}
	rec := &scheduleRecorder{m: m}
	m.SetObserver(rec)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	// Model: thread i retires 5 setup instructions, 3 per iteration,
	// then halt.
	total := make([]uint64, threads)
	for i := range total {
		total[i] = 5 + 3*uint64(20+7*i) + 1
		if got := m.Threads[i].Instrs; got != total[i] {
			t.Fatalf("thread %d retired %d, want %d", i, got, total[i])
		}
	}
	step := map[[2]uint64]uint64{} // (tid, thread instr) -> global step
	done := make([]uint64, threads)
	var global uint64
	for live := true; live; {
		live = false
		for i := range done {
			for q := 0; q < quantum && done[i] < total[i]; q++ {
				done[i]++
				global++
				step[[2]uint64{uint64(i), done[i]}] = global
				live = true
			}
		}
	}
	if m.Steps() != global {
		t.Fatalf("steps = %d, want %d", m.Steps(), global)
	}
	if len(rec.log) != 20+27+34 {
		t.Fatalf("observer saw %d accesses", len(rec.log))
	}
	for _, r := range rec.log {
		if want := step[[2]uint64{uint64(r.tid), r.instrs}]; r.steps != want {
			t.Fatalf("thread %d instr %d retired at step %d, want %d", r.tid, r.instrs, r.steps, want)
		}
		if r.pc != isa.MakePC(0, 5) {
			t.Fatalf("store retired at %v", r.pc)
		}
	}
}

// TestLBRWrapsInOrder fills the LBR several times over and checks it
// holds the newest entries, oldest first.
func TestLBRWrapsInOrder(t *testing.T) {
	b := isa.NewBuilder("test")
	callee := b.Func("callee")
	callee.Ret()
	main := b.Func("main")
	main.MovImm(isa.R2, 0)
	main.MovImm(isa.R4, 20)
	main.Label("loop")
	main.Call("callee")
	main.AddImm(isa.R2, isa.R2, 1)
	main.Blt(isa.R2, isa.R4, "loop")
	main.Halt()
	b.SetEntry("main")
	m := New(b.MustBuild(), Config{LBRSize: 16})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	callPC, calleePC := isa.MakePC(1, 2), isa.MakePC(0, 0)
	var all []Branch
	for i := 0; i < 20; i++ {
		all = append(all, Branch{callPC, calleePC}, Branch{calleePC, callPC.Add(1)})
		if i < 19 {
			all = append(all, Branch{callPC.Add(2), callPC})
		}
	}
	want := all[len(all)-16:]
	got := m.Threads[0].LBR()
	if len(got) != len(want) {
		t.Fatalf("LBR holds %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LBR[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if last, ok := m.Threads[0].LastBranch(); !ok || last != want[len(want)-1] {
		t.Fatalf("last branch %v, want %v", last, want[len(want)-1])
	}
}
