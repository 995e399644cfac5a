package agg

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/witch"
)

// randomState builds a State whose every field is set: floats over six
// decades (and signed zeros), empty and long strings, negative ints,
// and every Stats and Health field nonzero. Rows are sorted and keyed
// once each, as the decoder requires.
func randomState(rng *rand.Rand) *State {
	str := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("x", 200+rng.Intn(300))
		}
		return string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
	}
	float := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		f := math.Pow(10, rng.Float64()*6-3) * (1 + rng.Float64())
		if rng.Intn(2) == 0 {
			f = -f
		}
		return f
	}
	u := func() uint64 { return rng.Uint64() >> rng.Intn(64) }
	i := func() int { return rng.Intn(1<<20) - 1<<19 }
	st := &State{}
	for n := rng.Intn(4); n > 0; n-- {
		st.Metas = append(st.Metas, MetaState{
			Tool: str(), Program: str(), Profiles: u(),
			Waste: float(), Use: float(), WallNanos: int64(i()) << 20,
			ToolBytes: u(), Instrs: u(), Loads: u(), Stores: u(),
			Exhaustive: rng.Intn(2) == 0,
			Stats: witch.Stats{
				Samples: u(), Monitored: u(), Traps: u(), SpuriousTraps: u(), MaxBlindSpot: u(),
				Opens: u(), Closes: u(), Modifies: u(), DisasmInstrs: u(),
			},
			Health: witch.Health{
				SignalsLost: u(), RingLost: u(), ArmFailures: u(), ArmRetries: u(),
				ModifyFallbacks: u(), LBROutages: u(), ConfiguredRegs: i(), EffectiveRegs: i(),
				RegistersShrunk: rng.Intn(2) == 0, SampleLoss: rng.Intn(2) == 0, Degraded: rng.Intn(2) == 0,
			},
		})
	}
	for n := rng.Intn(6); n > 0; n-- {
		st.Pairs = append(st.Pairs, PairState{
			Tool: str(), Program: str(), Src: str(), Dst: str(), Chain: str(),
			Waste: float(), Use: float(), SrcLine: i(), DstLine: i(),
		})
	}
	slices.SortStableFunc(st.Metas, func(x, y MetaState) int { return cmpMeta(&x, &y) })
	st.Metas = slices.CompactFunc(st.Metas, func(x, y MetaState) bool { return cmpMeta(&x, &y) == 0 })
	slices.SortStableFunc(st.Pairs, func(x, y PairState) int { return cmpPair(&x, &y) })
	st.Pairs = slices.CompactFunc(st.Pairs, func(x, y PairState) bool { return cmpPair(&x, &y) == 0 })
	return st
}

// badBool is a one-meta State whose Exhaustive byte reads 2: magic,
// meta count, two empty strings, Profiles, two floats and five ints
// come first.
func badBool() []byte {
	b := encodeState(&State{Metas: []MetaState{{}}})
	b[len(magic)+1+2+1+16+5] = 2
	return b
}

func encodeState(st *State) []byte {
	e := NewEncoder(nil)
	e.State(st)
	return e.Bytes()
}

func decodeState(b []byte) (*State, error) {
	d := NewDecoder(b)
	st := d.State()
	return st, d.Close()
}

// TestStateCodecRoundTrip: random States round-trip bit for bit, floats
// compared by math.Float64bits, and encode to identical bytes twice.
func TestStateCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 500; k++ {
		st := randomState(rng)
		b := encodeState(st)
		if again := encodeState(st); !bytes.Equal(b, again) {
			t.Fatalf("state %d: two encodings differ", k)
		}
		got, err := decodeState(b)
		if err != nil {
			t.Fatalf("state %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("state %d: round trip differs:\n got %+v\nwant %+v", k, got, st)
		}
		for i := range st.Metas {
			g, w := &got.Metas[i], &st.Metas[i]
			if math.Float64bits(g.Waste) != math.Float64bits(w.Waste) || math.Float64bits(g.Use) != math.Float64bits(w.Use) {
				t.Fatalf("state %d meta %d: float bits differ", k, i)
			}
		}
		for i := range st.Pairs {
			g, w := &got.Pairs[i], &st.Pairs[i]
			if math.Float64bits(g.Waste) != math.Float64bits(w.Waste) || math.Float64bits(g.Use) != math.Float64bits(w.Use) {
				t.Fatalf("state %d pair %d: float bits differ", k, i)
			}
		}
	}
}

// TestStateCodecRejects: every strict prefix of a valid payload, a
// payload without the magic, trailing bytes, a non-minimal varint, a
// bool other than 0 or 1, a string longer than the bytes left and a
// map key out of order all fail without a panic.
func TestStateCodecRejects(t *testing.T) {
	b := encodeState(randomState(rand.New(rand.NewSource(3))))
	if _, err := decodeState(b); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := decodeState(b[:n]); err == nil {
			t.Fatalf("the %d-byte prefix of %d bytes decoded", n, len(b))
		}
	}
	bad := map[string][]byte{
		"no magic":           []byte("WITCHB1\n\x00\x00"),
		"trailing byte":      append(encodeState(&State{}), 0),
		"non-minimal count":  []byte(magic + "\x80\x00\x00"),
		"bool 2":             badBool(),
		"huge string length": []byte(magic + "\x00\x01\xff\xff\x03" + strings.Repeat("\x00", 30)),
	}
	for name, payload := range bad {
		if _, err := decodeState(payload); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}

	e := NewEncoder(nil)
	e.Uint(2)
	e.Str("b")
	e.Uint(1)
	e.Str("a")
	e.Uint(2)
	d := NewDecoder(e.Bytes())
	DecodeMap(d, 1, d.Uint)
	if d.Close() == nil {
		t.Error("a map with keys out of order decoded")
	}
}

// TestStateCodecMinimalRows: rows of the smallest encoding, all fields
// zero, pass the count check at any count, which bounds by exactly
// that size. One decodes; more share a key, and fail the order check
// instead.
func TestStateCodecMinimalRows(t *testing.T) {
	for _, n := range []int{1, 100} {
		for _, st := range []*State{{Metas: make([]MetaState, n)}, {Pairs: make([]PairState, n)}} {
			got, err := decodeState(encodeState(st))
			if n == 1 && (err != nil || !reflect.DeepEqual(got, st)) {
				t.Fatalf("one zero meta or pair: err %v", err)
			}
			if n > 1 && (err == nil || !strings.Contains(err.Error(), "out of order")) {
				t.Fatalf("%d zero metas, %d zero pairs: err %v, want the order check's", len(st.Metas), len(st.Pairs), err)
			}
		}
	}
}

// TestStateCodecChecksOrder: a State with rows out of order, or with a
// key twice, fails its payload.
func TestStateCodecChecksOrder(t *testing.T) {
	a, b := PairState{Tool: "t", Src: "a"}, PairState{Tool: "t", Src: "b"}
	for name, st := range map[string]*State{
		"misordered pairs":   {Pairs: []PairState{b, a}},
		"duplicate pair":     {Pairs: []PairState{a, a}},
		"misordered metas":   {Metas: []MetaState{{Tool: "u"}, {Tool: "t"}}},
		"duplicate meta key": {Metas: []MetaState{{Tool: "t"}, {Tool: "t", Profiles: 1}}},
	} {
		if _, err := decodeState(encodeState(st)); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("%s: err %v, want out of order", name, err)
		}
	}
}
