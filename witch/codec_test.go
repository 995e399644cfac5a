package witch_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/witch"
)

// codecProfile builds a real profile with a non-trivial pair list
// (h264ref under DeadStores yields ~11 pairs).
func codecProfile(t testing.TB) *witch.Profile {
	t.Helper()
	prog, err := witch.Workload("h264ref")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := witch.Run(prog, witch.Options{Tool: witch.DeadStores, Period: 97, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// jsonOf canonicalizes a profile for comparison.
func jsonOf(t testing.TB, pr *witch.Profile) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBinaryRoundTrip: encode → decode must preserve every field the
// JSON schema carries, verified by byte-comparing the canonical JSON of
// both sides, and the decoded profile must re-encode to the same bytes.
func TestBinaryRoundTrip(t *testing.T) {
	prof := codecProfile(t)
	body := prof.AppendBinary(nil)
	if !witch.IsBinaryProfile(body) {
		t.Fatal("encoded body does not self-identify as binary")
	}
	var dec witch.BatchDecoder
	got, err := dec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d profiles, want 1", len(got))
	}
	if want, have := jsonOf(t, prof), jsonOf(t, got[0]); want != have {
		t.Fatalf("binary round trip drifted:\nwant %s\ngot  %s", want, have)
	}
	if again := got[0].AppendBinary(nil); !bytes.Equal(again, body) {
		t.Fatalf("decoded profile re-encodes to different bytes:\nwant %q\ngot  %q", body, again)
	}
}

// TestLegacyBinaryFixture: WITCHB1 batches written by older builds
// (journals, hint records, spools) still decode, to the profiles their
// WITCHB2 re-encoding decodes to.
func TestLegacyBinaryFixture(t *testing.T) {
	body := legacyFixture(t)
	var dec witch.BatchDecoder
	old, err := dec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 2 {
		t.Fatalf("decoded %d profiles, want 2", len(old))
	}
	// Spot values the older build logged when it wrote the fixture: the
	// JSON header really was read, Stats and Health included.
	a, b := old[0], old[1]
	if a.Program != "h264ref" || a.Tool != "DeadCraft" || a.Stats.Samples != 2710 || a.Health.SignalsLost != 261 ||
		b.Program != "gcc" || b.Tool != "SilentCraft" || b.Health.ArmFailures != 20 ||
		b.Health.ConfiguredRegs != 4 || b.Health.EffectiveRegs != 3 || !b.Health.RegistersShrunk {
		t.Fatalf("fixture header misread:\n%+v %+v\n%+v %+v", a.Stats, a.Health, b.Stats, b.Health)
	}

	var current []byte
	for _, pr := range old {
		current = pr.AppendBinary(current)
	}
	if !bytes.HasPrefix(current, []byte("WITCHB2\n")) {
		t.Fatalf("AppendBinary wrote %q, want a WITCHB2 document", current[:8])
	}
	if len(current) >= len(body) {
		t.Errorf("WITCHB2 batch is %d bytes, WITCHB1 %d: the binary header should be smaller", len(current), len(body))
	}
	var again witch.BatchDecoder
	got, err := again.Decode(current)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(old) {
		t.Fatalf("re-encoded batch decoded %d profiles, want %d", len(got), len(old))
	}
	for i := range old {
		if !sameProfile(t, old[i], got[i]) {
			t.Fatalf("profile %d differs between WITCHB1 and WITCHB2:\nwant %s\ngot  %s", i, jsonOf(t, old[i]), jsonOf(t, got[i]))
		}
	}
}

// TestBinaryDecodeStrict: a WITCHB2 document is accepted only in its
// canonical bytes, and a length or count claiming more than the bytes
// left fails before anything is read for it.
func TestBinaryDecodeStrict(t *testing.T) {
	prof := codecProfile(t)
	doc := prof.AppendBinary(nil)
	prefix, hdr, pairs := splitDocument(t, doc)
	count, k := binary.Uvarint(pairs)
	if len(hdr) >= 128 || count >= 128 || len(prof.Program) >= 128 || len(prof.Tool) >= 128 {
		t.Fatal("test assumes one-byte header length, pair count and string lengths")
	}
	exhaustive := 1 + len(prof.Program) + 1 + len(prof.Tool) // offset in the header

	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	magic := []byte("WITCHB2\n")
	badBool := append([]byte(nil), hdr...)
	badBool[exhaustive] = 2
	for _, c := range []struct {
		name, body, want string
	}{
		{"header length beyond the body", string(cat(binary.AppendUvarint(magic, uint64(len(doc))), hdr, pairs)), "exceeds"},
		{"pair count beyond the body", string(cat(prefix, hdr, binary.AppendUvarint(nil, 1<<40), pairs[k:])), "exceeds"},
		{"pair count one too many", string(cat(prefix, hdr, binary.AppendUvarint(nil, count+1), pairs[k:])), "pair"},
		{"non-minimal header length", string(cat(magic, []byte{byte(len(hdr)) | 0x80, 0}, hdr, pairs)), "non-minimal"},
		{"non-minimal pair count", string(cat(prefix, hdr, []byte{byte(count) | 0x80, 0}, pairs[k:])), "non-minimal"},
		{"bool other than 0 or 1", string(withHeader(badBool, pairs)), "exhaustive"},
		{"header longer than its fields", string(withHeader(cat(hdr, []byte{0}), pairs)), "past its fields"},
		{"header shorter than its fields", string(withHeader(hdr[:len(hdr)-1], pairs)), "degraded"},
		{"binary header under the WITCHB1 magic", "WITCHB1\n" + string(doc[8:]), "header"},
	} {
		var dec witch.BatchDecoder
		_, err := dec.Decode([]byte(c.body))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestBatchDecoderMatchesReadProfileJSON: the pooled JSON path must
// agree exactly with the reference ReadProfileJSON decoder, for a bare
// object and for a batch array, across decoder reuse.
func TestBatchDecoderMatchesReadProfileJSON(t *testing.T) {
	prof := codecProfile(t)
	var single bytes.Buffer
	if err := prof.WriteJSON(&single); err != nil {
		t.Fatal(err)
	}
	ref, err := witch.ReadProfileJSON(bytes.NewReader(single.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := jsonOf(t, ref)

	var dec witch.BatchDecoder
	for round := 0; round < 3; round++ { // reuse must not corrupt later decodes
		got, err := dec.Decode(single.Bytes())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != 1 || jsonOf(t, got[0]) != want {
			t.Fatalf("round %d: single-object decode drifted", round)
		}
		batch := []byte("[" + single.String() + "," + single.String() + "]")
		got, err = dec.Decode(batch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != 2 {
			t.Fatalf("round %d: decoded %d profiles, want 2", round, len(got))
		}
		for i, pr := range got {
			if jsonOf(t, pr) != want {
				t.Fatalf("round %d: batch profile %d drifted", round, i)
			}
		}

		// Stream form: concatenated WriteJSON documents, no array.
		stream := []byte(single.String() + single.String() + single.String())
		got, err = dec.Decode(stream)
		if err != nil {
			t.Fatalf("round %d: stream: %v", round, err)
		}
		if len(got) != 3 {
			t.Fatalf("round %d: stream decoded %d profiles, want 3", round, len(got))
		}
		for i, pr := range got {
			if jsonOf(t, pr) != want {
				t.Fatalf("round %d: stream profile %d drifted", round, i)
			}
		}
	}

	// All-or-nothing: a stream with a bad trailing document fails whole,
	// and an empty array is not a batch.
	if _, err := dec.Decode([]byte(single.String() + `{"format_version": 9}`)); err == nil {
		t.Fatal("good-then-bad stream decoded")
	}
	if _, err := dec.Decode([]byte("[]")); err == nil {
		t.Fatal("empty array decoded as a batch")
	}
}

// TestBinaryBatchConcatenation: a batch is concatenated documents.
func TestBinaryBatchConcatenation(t *testing.T) {
	prof := codecProfile(t)
	one := prof.AppendBinary(nil)
	three := append(append(append([]byte(nil), one...), one...), one...)
	var dec witch.BatchDecoder
	got, err := dec.Decode(three)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d profiles, want 3", len(got))
	}
	want := jsonOf(t, prof)
	for i, pr := range got {
		if jsonOf(t, pr) != want {
			t.Fatalf("batch profile %d drifted", i)
		}
	}
}

// TestBinaryDecodeHostileInput: truncations, corrupt lengths, and junk
// must produce errors, never panics or silent partial batches.
func TestBinaryDecodeHostileInput(t *testing.T) {
	prof := codecProfile(t)
	body := prof.AppendBinary(nil)
	var dec witch.BatchDecoder
	// Every proper prefix must fail (the full body succeeds).
	for n := 0; n < len(body); n++ {
		if n > 0 && witch.IsBinaryProfile(body[:n]) {
			if _, err := dec.Decode(body[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(body))
			}
		}
	}
	// Junk after a valid document is a bad-magic error, not a silent stop.
	if _, err := dec.Decode(append(append([]byte(nil), body...), "trailing junk"...)); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("trailing junk: got %v, want bad-magic error", err)
	}
	// A corrupt final byte (dangling varint) must fail too.
	corrupt := append(append([]byte(nil), body[:len(body)-1]...), 0xFF)
	if _, err := dec.Decode(corrupt); err == nil {
		t.Fatal("corrupt tail decoded cleanly")
	}
}

// TestBinaryDecodeRejectsInvalidMetrics: the binary path runs the same
// semantic validation as ReadProfileJSON.
func TestBinaryDecodeRejectsInvalidMetrics(t *testing.T) {
	bad := witch.NewProfile(witch.Profile{Tool: "DeadStores"}, []witch.Pair{
		{Src: "a.c:f:1", Dst: "a.c:g:2", Waste: -5, Use: 1},
	})
	body := bad.AppendBinary(nil)
	var dec witch.BatchDecoder
	if _, err := dec.Decode(body); err == nil || !strings.Contains(err.Error(), "waste") {
		t.Fatalf("negative waste decoded cleanly (err=%v)", err)
	}
}
