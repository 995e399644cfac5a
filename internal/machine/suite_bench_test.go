package machine_test

import (
	"testing"

	"repro/internal/craft"
	"repro/internal/machine"
	iwitch "repro/internal/witch"
	"repro/internal/workloads"
)

// BenchmarkInterpreterSuite measures ns per retired instruction on a
// suite program, natively and under DeadCraft at the default store
// period: the retire loop's cost on a realistic instruction mix, and
// what the PMU, watchpoints and sample handling add on top.
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
	b.Run("gcc/DeadCraft", func(b *testing.B) {
		run(b, func(m *machine.Machine) error {
			_, err := iwitch.NewProfiler(m, craft.NewDeadCraft(), iwitch.Config{Period: 5000, Seed: 1}).Run()
			return err
		})
	})
}
