package witch_test

import (
	"math"
	"testing"

	"repro/internal/witch"
)

// trialPrime is the trial-division test NearestPrime used before
// Miller–Rabin, kept as the reference. Memoized: the reference scans
// overlap heavily across neighbouring inputs.
type trialPrime map[uint64]bool

func (m trialPrime) isPrime(x uint64) bool {
	if v, ok := m[x]; ok {
		return v
	}
	v := x%2 != 0 || x == 2
	for d := uint64(3); v && d*d <= x; d += 2 {
		if x%d == 0 {
			v = false
		}
	}
	m[x] = v
	return v
}

// nearest is the reference NearestPrime: the closest prime, ties down.
func (m trialPrime) nearest(n uint64) uint64 {
	if n < 3 {
		return 2
	}
	for delta := uint64(0); ; delta++ {
		if delta < n && m.isPrime(n-delta) {
			return n - delta
		}
		if m.isPrime(n + delta) {
			return n + delta
		}
	}
}

// TestNearestPrimeMatchesTrialDivision: Miller–Rabin picks the same
// period as trial division everywhere a profile can ask for one in
// practice — every n up to 2·10⁵ and a band around the 2^30 and 2^40
// periods the benchmarks run at.
func TestNearestPrimeMatchesTrialDivision(t *testing.T) {
	ref := trialPrime{}
	check := func(n uint64) {
		if got, want := witch.NearestPrime(n), ref.nearest(n); got != want {
			t.Fatalf("NearestPrime(%d) = %d, trial division says %d", n, got, want)
		}
	}
	for n := uint64(0); n <= 200000; n++ {
		check(n)
	}
	for _, c := range []uint64{1 << 30, 1 << 40} {
		for n := c - 1000; n <= c+1000; n++ {
			check(n)
		}
	}
}

// TestNearestPrimeLarge: known primes map to themselves, strong
// pseudoprimes to the smallest bases do not, and the search neither
// wraps nor overflows at the top of the range.
func TestNearestPrimeLarge(t *testing.T) {
	for _, p := range []uint64{1<<61 - 1, math.MaxUint64 - 58} {
		if got := witch.NearestPrime(p); got != p {
			t.Errorf("NearestPrime(%d) = %d, want the prime itself", p, got)
		}
	}
	if got, want := witch.NearestPrime(math.MaxUint64), uint64(math.MaxUint64-58); got != want {
		t.Errorf("NearestPrime(MaxUint64) = %d, want 2^64-59 = %d", got, want)
	}
	// Strong pseudoprimes to bases 2..7, 2..11, 2..13 and 2..17.
	ref := trialPrime{}
	for _, x := range []uint64{3215031751, 2152302898747, 3474749660383, 341550071728321} {
		if got, want := witch.NearestPrime(x), ref.nearest(x); got != want || got == x {
			t.Errorf("NearestPrime(%d) = %d, trial division says %d", x, got, want)
		}
	}
}
