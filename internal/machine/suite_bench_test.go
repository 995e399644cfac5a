package machine_test

import (
	"fmt"
	"testing"

	"repro/internal/craft"
	"repro/internal/machine"
	iwitch "repro/internal/witch"
	"repro/internal/workloads"
)

// BenchmarkInterpreterSuite measures ns per retired instruction on a
// suite program, natively, under DeadCraft at the default store period,
// and under DeadCraft at a period that never samples: the retire loop's
// cost on a realistic instruction mix, what the counting PMU adds, and
// what watchpoints and sample handling add on top.
func BenchmarkInterpreterSuite(b *testing.B) {
	sp, ok := workloads.SuiteSpec("gcc")
	if !ok {
		b.Fatal("no gcc in the suite")
	}
	prog := sp.Build(1)
	run := func(b *testing.B, execute func(*machine.Machine) error) {
		var instrs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := machine.New(prog, machine.Config{})
			if err := execute(m); err != nil {
				b.Fatal(err)
			}
			instrs += m.Steps()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	}
	b.Run("gcc/native", func(b *testing.B) { run(b, (*machine.Machine).Run) })
	// The profiler is built with the timer stopped: NewProfiler rounds
	// the period to a prime by trial division, which at a period of 2^30
	// is ~80 µs of setup that is no part of the retire loop.
	profile := func(b *testing.B, m *machine.Machine, period uint64) error {
		b.StopTimer()
		p := iwitch.NewProfiler(m, craft.NewDeadCraft(), iwitch.Config{Period: period, Seed: 1})
		b.StartTimer()
		_, err := p.Run()
		return err
	}
	b.Run("gcc/DeadCraft", func(b *testing.B) {
		run(b, func(m *machine.Machine) error { return profile(b, m, 5000) })
	})
	// A period no run reaches: the PMU counts every store and never
	// overflows, so this is the cost of the sampling hardware being on
	// with nothing sampled, next to native.
	b.Run("gcc/DeadCraft/nosample", func(b *testing.B) {
		run(b, func(m *machine.Machine) error {
			if err := profile(b, m, 1<<30); err != nil {
				return err
			}
			for _, th := range m.Threads {
				if n := th.PMU.Samples() + th.PMU.LostSignals; n != 0 {
					return fmt.Errorf("thread %d overflowed %d times", th.ID, n)
				}
			}
			return nil
		})
	})
}
