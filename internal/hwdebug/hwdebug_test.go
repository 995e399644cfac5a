package hwdebug

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestArmDisarmBookkeeping(t *testing.T) {
	u := NewUnit(0, 4)
	if u.NumRegs() != 4 || u.Armed() != 0 {
		t.Fatal("fresh unit state wrong")
	}
	u.Arm(1, 100, 8, RWTrap, "cookie", 5)
	if u.Armed() != 1 || u.FreeReg() != 0 {
		t.Fatalf("armed=%d free=%d", u.Armed(), u.FreeReg())
	}
	wp := u.Reg(1)
	if !wp.Active || wp.Addr != 100 || wp.Cookie != "cookie" || wp.ArmedAt != 5 {
		t.Fatalf("reg state: %+v", wp)
	}
	u.Disarm(1)
	if u.Armed() != 0 {
		t.Fatal("disarm did not release")
	}
	// Re-arming an armed register must not double count.
	u.Arm(0, 1, 1, WTrap, nil, 0)
	u.Arm(0, 2, 1, WTrap, nil, 0)
	if u.Armed() != 1 {
		t.Fatalf("re-arm counted twice: %d", u.Armed())
	}
	u.DisarmAll()
	if u.Armed() != 0 {
		t.Fatal("DisarmAll failed")
	}
}

func TestLengthClamping(t *testing.T) {
	u := NewUnit(0, 1)
	u.Arm(0, 100, 0, WTrap, nil, 0)
	if u.Reg(0).Len != 1 {
		t.Fatalf("len 0 should clamp to 1, got %d", u.Reg(0).Len)
	}
	u.Arm(0, 100, 64, WTrap, nil, 0)
	if u.Reg(0).Len != 8 {
		t.Fatalf("len 64 should clamp to 8, got %d", u.Reg(0).Len)
	}
}

func TestWTrapIgnoresLoads(t *testing.T) {
	u := NewUnit(0, 1)
	var traps []Trap
	u.SetHandler(func(tr Trap) { traps = append(traps, tr) })
	u.Arm(0, 100, 8, WTrap, nil, 0)
	if n := u.Check(Load, 100, 8, 0, false, isa.MakePC(0, 1), false); n != 0 {
		t.Fatal("W_TRAP must not fire on a load")
	}
	if n := u.Check(Store, 100, 8, 42, false, isa.MakePC(0, 2), false); n != 1 {
		t.Fatal("W_TRAP must fire on a store")
	}
	if traps[0].Value != 42 || traps[0].Overlap != 8 {
		t.Fatalf("trap = %+v", traps[0])
	}
}

func TestRWTrapFiresOnBoth(t *testing.T) {
	u := NewUnit(0, 1)
	fired := 0
	u.SetHandler(func(tr Trap) { fired++ })
	u.Arm(0, 200, 4, RWTrap, nil, 0)
	u.Check(Load, 200, 4, 0, false, 0, false)
	u.Check(Store, 200, 4, 0, false, 0, false)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestPartialOverlap(t *testing.T) {
	u := NewUnit(0, 1)
	var got Trap
	u.SetHandler(func(tr Trap) { got = tr })
	u.Arm(0, 100, 8, RWTrap, nil, 0)
	// Access [104,112): overlaps [100,108) by 4 bytes.
	if n := u.Check(Store, 104, 8, 0, false, 0, false); n != 1 {
		t.Fatal("expected overlap trap")
	}
	if got.Overlap != 4 {
		t.Fatalf("overlap = %d, want 4", got.Overlap)
	}
	// Access entirely outside.
	if n := u.Check(Store, 108, 4, 0, false, 0, false); n != 0 {
		t.Fatal("no overlap expected")
	}
}

func TestKernelViewCountsSpurious(t *testing.T) {
	u := NewUnit(0, 1)
	u.SetHandler(func(tr Trap) {
		if !tr.KernelView {
			t.Error("expected kernel-view trap")
		}
	})
	u.Arm(0, 100, 8, RWTrap, nil, 0)
	u.Check(Store, 100, 8, 0, false, 0, true)
	if u.Spurious != 1 || u.Traps != 0 {
		t.Fatalf("spurious=%d traps=%d", u.Spurious, u.Traps)
	}
}

// TestOverlapProperty: overlap is symmetric, bounded by both lengths, and
// zero iff the ranges are disjoint.
func TestOverlapProperty(t *testing.T) {
	f := func(a1off, a2off uint8, l1s, l2s uint8) bool {
		a1 := 1000 + uint64(a1off%32)
		a2 := 1000 + uint64(a2off%32)
		l1 := l1s%8 + 1
		l2 := l2s%8 + 1
		ov := overlap(a1, l1, a2, l2)
		ov2 := overlap(a2, l2, a1, l1)
		if ov != ov2 || ov > l1 || ov > l2 {
			return false
		}
		disjoint := a1+uint64(l1) <= a2 || a2+uint64(l2) <= a1
		return (ov == 0) == disjoint
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	if WTrap.String() != "W_TRAP" || RWTrap.String() != "RW_TRAP" {
		t.Fatal("kind strings")
	}
	if Load.String() != "load" || Store.String() != "store" {
		t.Fatal("access kind strings")
	}
}

func TestDefaultRegisterCount(t *testing.T) {
	if NewUnit(0, 0).NumRegs() != 4 {
		t.Fatal("default should be 4 registers, like x86")
	}
}

// TestMayTrapNeverHidesATrap drives a guarded unit (Check only when
// MayTrap says so, as the machine does) and a guard-free reference
// through the same random Arm/Disarm/DisarmAll/Reserve/Release
// sequences and accesses, user and kernel-view alike. The guard must
// never reject an access the full scan traps on, and both units must
// deliver the same traps.
func TestMayTrapNeverHidesATrap(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var gotTraps, wantTraps []Trap
		guarded, ref := NewUnit(0, 4), NewUnit(0, 4)
		guarded.SetHandler(func(tr Trap) { gotTraps = append(gotTraps, tr) })
		ref.SetHandler(func(tr Trap) { wantTraps = append(wantTraps, tr) })
		// Addresses cluster in a small window so accesses hit, with a few
		// at the top of the address space where ranges wrap.
		addr := func() uint64 {
			if rng.Intn(20) == 0 {
				return ^uint64(0) - uint64(rng.Intn(16))
			}
			return 0x1000 + uint64(rng.Intn(96))
		}
		for op := 0; op < 400; op++ {
			reg := rng.Intn(4)
			switch r := rng.Intn(10); {
			case r < 3:
				a, l, k := addr(), uint8(rng.Intn(10)), Kind(rng.Intn(2))
				guarded.Arm(reg, a, l, k, op, 0)
				ref.Arm(reg, a, l, k, op, 0)
			case r < 4:
				guarded.Disarm(reg)
				ref.Disarm(reg)
			case r < 5 && rng.Intn(4) == 0:
				guarded.DisarmAll()
				ref.DisarmAll()
			case r < 6:
				if rng.Intn(2) == 0 {
					guarded.Reserve(reg)
					ref.Reserve(reg)
				} else {
					guarded.Release(reg)
					ref.Release(reg)
				}
			default:
				kind := AccessKind(rng.Intn(2))
				a, w := addr(), uint8(1)<<rng.Intn(4)
				kernel := rng.Intn(4) == 0
				pc := isa.MakePC(0, op)
				want := ref.Check(kind, a, w, uint64(op), false, pc, kernel)
				if !guarded.MayTrap(a, w) {
					if want != 0 {
						t.Fatalf("seed %d op %d: guard rejected a %d-byte access at %#x that traps %d times", seed, op, w, a, want)
					}
					continue
				}
				if got := guarded.Check(kind, a, w, uint64(op), false, pc, kernel); got != want {
					t.Fatalf("seed %d op %d: %d traps, reference %d", seed, op, got, want)
				}
			}
		}
		if guarded.Traps != ref.Traps || guarded.Spurious != ref.Spurious || guarded.Armed() != ref.Armed() {
			t.Fatalf("seed %d: traps %d/%d spurious %d/%d armed %d/%d", seed,
				guarded.Traps, ref.Traps, guarded.Spurious, ref.Spurious, guarded.Armed(), ref.Armed())
		}
		if !reflect.DeepEqual(gotTraps, wantTraps) {
			t.Fatalf("seed %d: delivered traps differ from the reference", seed)
		}
	}
}

func TestMayTrapIdleUnit(t *testing.T) {
	u := NewUnit(0, 4)
	for _, a := range []uint64{0, 1, 0x1000, ^uint64(0) - 7} {
		if u.MayTrap(a, 8) {
			t.Fatalf("unit with nothing armed may trap at %#x", a)
		}
	}
	u.Arm(2, 0x100, 8, RWTrap, nil, 0)
	if !u.MayTrap(0x104, 1) || u.MayTrap(0x108, 8) || u.MayTrap(0xf8, 8) {
		t.Fatal("guard does not follow the armed range")
	}
	u.DisarmAll()
	if u.MayTrap(0x104, 1) {
		t.Fatal("guard still open after DisarmAll")
	}
}
