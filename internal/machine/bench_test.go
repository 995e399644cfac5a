package machine

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/pmu"
)

// benchProg: a tight load-add-store loop, the interpreter's hot path.
func benchProg(iters int64) *isa.Program {
	b := isa.NewBuilder("bench")
	f := b.Func("main")
	f.MovImm(isa.R1, 0x1000)
	f.LoopN(isa.R9, iters, func(fb *isa.FuncBuilder) {
		fb.Load(isa.R2, isa.R1, 0, 8)
		fb.AddImm(isa.R2, isa.R2, 1)
		fb.Store(isa.R1, 0, isa.R2, 8)
	})
	f.Halt()
	return b.MustBuild()
}

// benchRun runs prog on a fresh machine per iteration, prepared by
// setup, and reports ns per retired instruction.
func benchRun(b *testing.B, prog *isa.Program, setup func(*Machine)) {
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(prog, Config{})
		setup(m)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		instrs += m.Steps()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkInterpreter measures raw execution speed (ns per retired
// instruction) with no monitoring attached.
func BenchmarkInterpreter(b *testing.B) {
	benchRun(b, benchProg(10000), func(*Machine) {})
}

// BenchmarkInterpreterWithSampler adds an armed PMU at a realistic period:
// the marginal cost of having the sampling hardware on.
func BenchmarkInterpreterWithSampler(b *testing.B) {
	benchRun(b, benchProg(10000), func(m *Machine) {
		m.AttachSampler(pmu.EventAllStores, 4999, func(*Thread, pmu.Sample) {})
	})
}

// BenchmarkWatchpointScan measures the per-access cost of checking armed
// debug registers (4 armed, no hits).
func BenchmarkWatchpointScan(b *testing.B) {
	benchRun(b, benchProg(10000), func(m *Machine) {
		for r := 0; r < 4; r++ {
			m.Threads[0].Watch.Arm(r, uint64(0x9000+r*64), 8, 1, nil, 0)
		}
	})
}
