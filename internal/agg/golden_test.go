package agg

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// TestGoldenState: the State payload an earlier build wrote for
// randomState's seed-7 State (testdata/state.witcha1) is what this
// build writes, byte for byte, and decodes back to that State.
func TestGoldenState(t *testing.T) {
	golden, err := os.ReadFile("testdata/state.witcha1")
	if err != nil {
		t.Fatal(err)
	}
	st := randomState(rand.New(rand.NewSource(7)))
	if b := encodeState(st); !bytes.Equal(b, golden) {
		t.Fatalf("State encodes to\n%x\nwant\n%x", b, golden)
	}
	got, err := decodeState(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("golden payload decodes to\n%+v\nwant\n%+v", got, st)
	}
}
