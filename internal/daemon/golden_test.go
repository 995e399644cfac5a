package daemon

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestGoldenRecords: the v1 and v2 journal envelopes and the hint
// record an earlier build wrote (testdata/envelope_v1.bin,
// envelope_v2.bin, hint.bin) are what this build writes for the same
// fields, byte for byte, and split back into those fields.
func TestGoldenRecords(t *testing.T) {
	ts := time.Unix(0, 1700000000123456789)
	body := []byte("WITCHB2\n\x00\x00 (any body)")
	const id, seq, ctype = "pusher-a1b2", 1<<35 + 300, "application/x-witch-profile"
	read := func(name string) []byte {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, c := range []struct {
		file  string
		keyed bool
	}{{"envelope_v1.bin", false}, {"envelope_v2.bin", true}} {
		golden := read(c.file)
		wantID, wantSeq := "", uint64(0)
		if c.keyed {
			wantID, wantSeq = id, seq
		}
		if env := appendEnvelope(ts, wantID, wantSeq, c.keyed, body); !bytes.Equal(env, golden) {
			t.Fatalf("%s: envelope encodes to %x, want %x", c.file, env, golden)
		}
		gotTS, gotID, gotSeq, keyed, gotBody, ok := splitEnvelope(golden)
		if !ok || !gotTS.Equal(ts) || gotID != wantID || gotSeq != wantSeq || keyed != c.keyed || !bytes.Equal(gotBody, body) {
			t.Fatalf("%s: splits to (%v, %q, %d, %v, %q, %v)", c.file, gotTS, gotID, gotSeq, keyed, gotBody, ok)
		}
	}

	golden := read("hint.bin")
	if rec := encodeHint(ts, id, seq, ctype, body); !bytes.Equal(rec, golden) {
		t.Fatalf("hint record encodes to %x, want %x", rec, golden)
	}
	gotTS, gotID, gotSeq, gotCtype, gotBody, ok := decodeHint(golden)
	if !ok || !gotTS.Equal(ts) || gotID != id || gotSeq != seq || gotCtype != ctype || !bytes.Equal(gotBody, body) {
		t.Fatalf("hint record decodes to (%v, %q, %d, %q, %q, %v)", gotTS, gotID, gotSeq, gotCtype, gotBody, ok)
	}
}
