package pmu

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestPeriodAndOverflow(t *testing.T) {
	u := NewUnit(3)
	var samples []Sample
	u.Configure(EventAllStores, 4, func(s Sample) { samples = append(samples, s) })
	u.Enable()
	for i := 0; i < 10; i++ {
		u.CountMemOp(Store, isa.MakePC(0, i), uint64(i), 8, uint64(i), false, 1)
	}
	if len(samples) != 2 { // overflows at the 4th and 8th store
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	s := samples[0]
	if s.Addr != 3 || s.PC.Index() != 3 || s.ThreadID != 3 || s.Seq != 1 {
		t.Fatalf("sample = %+v", s)
	}
	if samples[1].Seq != 2 {
		t.Fatal("sequence numbers must increase")
	}
}

func TestEventFiltering(t *testing.T) {
	u := NewUnit(0)
	n := 0
	u.Configure(EventAllLoads, 1, func(Sample) { n++ })
	u.Enable()
	u.CountMemOp(Store, 0, 0, 8, 0, false, 1)
	if n != 0 {
		t.Fatal("store must not count for ALL_LOADS")
	}
	u.CountMemOp(Load, 0, 0, 8, 0, false, 1)
	if n != 1 {
		t.Fatal("load must count for ALL_LOADS")
	}
	u.Configure(EventAllMemOps, 1, func(Sample) { n++ })
	u.Enable()
	u.CountMemOp(Store, 0, 0, 8, 0, false, 1)
	u.CountMemOp(Load, 0, 0, 8, 0, false, 1)
	if n != 3 {
		t.Fatalf("ALL_MEMOPS should count both, n=%d", n)
	}
}

func TestDisableStopsCounting(t *testing.T) {
	u := NewUnit(0)
	n := 0
	u.Configure(EventAllStores, 1, func(Sample) { n++ })
	u.Enable()
	u.CountMemOp(Store, 0, 0, 8, 0, false, 1)
	u.Disable()
	u.CountMemOp(Store, 0, 0, 8, 0, false, 1)
	if n != 1 {
		t.Fatalf("n = %d, want 1", n)
	}
	if u.Enabled() {
		t.Fatal("Enabled() should be false")
	}
}

func TestZeroPeriodBecomesOne(t *testing.T) {
	u := NewUnit(0)
	u.Configure(EventAllStores, 0, nil)
	if u.Period() != 1 {
		t.Fatalf("period = %d", u.Period())
	}
}

func TestShadowAttributesToLongLatencyOp(t *testing.T) {
	u := NewUnit(0)
	u.Shadow = true
	var got []Sample
	u.Configure(EventAllStores, 2, func(s Sample) { got = append(got, s) })
	u.Enable()
	// Long-latency store at addr 100 (latency 4), then short stores in
	// its shadow at addrs 200, 201, 202.
	u.CountMemOp(Store, isa.MakePC(0, 0), 100, 8, 0, false, 4)
	u.CountMemOp(Store, isa.MakePC(0, 1), 200, 8, 0, false, 1) // overflow here
	if len(got) != 1 {
		t.Fatalf("samples = %d", len(got))
	}
	if got[0].Addr != 100 {
		t.Fatalf("shadowed sample should report the long-latency op, got addr %d", got[0].Addr)
	}
	// Shadow expires after latency-1 retirements.
	u.CountMemOp(Store, isa.MakePC(0, 2), 201, 8, 0, false, 1)
	u.CountMemOp(Store, isa.MakePC(0, 3), 202, 8, 0, false, 1) // overflow, shadow has 1 slot left... consumed at 201
	u.CountMemOp(Store, isa.MakePC(0, 4), 300, 8, 0, false, 1)
	u.CountMemOp(Store, isa.MakePC(0, 5), 301, 8, 0, false, 1) // overflow, out of shadow
	if last := got[len(got)-1]; last.Addr != 301 {
		t.Fatalf("post-shadow sample should be precise, got addr %d", last.Addr)
	}
}

// TestSampleCountProperty: over n ops with period p, exactly n/p samples.
func TestSampleCountProperty(t *testing.T) {
	f := func(n16 uint16, p8 uint8) bool {
		n := int(n16%5000) + 1
		p := uint64(p8%97) + 1
		u := NewUnit(0)
		count := 0
		u.Configure(EventAllStores, p, func(Sample) { count++ })
		u.Enable()
		for i := 0; i < n; i++ {
			u.CountMemOp(Store, 0, uint64(i), 8, 0, false, 1)
		}
		return count == n/int(p) && u.Samples() == uint64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEventStrings(t *testing.T) {
	if EventAllStores.String() != "MEM_UOPS_RETIRED:ALL_STORES" {
		t.Fatal(EventAllStores.String())
	}
	if EventAllLoads.String() != "MEM_UOPS_RETIRED:ALL_LOADS" {
		t.Fatal(EventAllLoads.String())
	}
	if Load.String() != "load" || Store.String() != "store" {
		t.Fatal("kind strings")
	}
}

// TestDropSignalConsumesPeriod: a lost overflow signal uses up the
// period's events but delivers nothing and takes no sequence number.
func TestDropSignalConsumesPeriod(t *testing.T) {
	u := NewUnit(0)
	var got []Sample
	u.Configure(EventAllStores, 2, func(s Sample) { got = append(got, s) })
	drop := true
	u.DropSignal = func() bool { d := drop; drop = false; return d }
	u.Enable()
	for i := 0; i < 4; i++ {
		u.CountMemOp(Store, isa.MakePC(0, i), uint64(i), 8, 0, false, 1)
	}
	if u.LostSignals != 1 || len(got) != 1 || got[0].Addr != 3 || got[0].Seq != 1 || u.Samples() != 1 {
		t.Fatalf("lost %d, samples %+v", u.LostSignals, got)
	}
}
