package witch_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"repro/witch"
)

// legacyFixture is a WITCHB1 batch of two documents, written by the
// last build whose AppendBinary wrote that format: h264ref under
// DeadStores (period 97) and gcc under SilentStores (period 499), both
// seed 1 with every profiler fault class injected (ArmEBUSY 0.6, the
// rest 0.1, fault seed 42), so Stats and Health are non-zero and the
// second profile has shrunk registers.
func legacyFixture(t testing.TB) []byte {
	t.Helper()
	body, err := os.ReadFile("testdata/witchb1_batch.bin")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// splitDocument splits one WITCHB2 document into its magic and header
// length prefix, its header, and the pair section after it.
func splitDocument(t testing.TB, doc []byte) (prefix, hdr, pairs []byte) {
	t.Helper()
	n, k := binary.Uvarint(doc[8:])
	if k <= 0 || 8+k+int(n) > len(doc) {
		t.Fatalf("not a WITCHB2 document: %q", doc)
	}
	return doc[:8+k], doc[8+k : 8+k+int(n)], doc[8+k+int(n):]
}

// withHeader rebuilds a document around hdr, with a header length that
// matches it.
func withHeader(hdr, pairs []byte) []byte {
	doc := binary.AppendUvarint([]byte("WITCHB2\n"), uint64(len(hdr)))
	return append(append(doc, hdr...), pairs...)
}

// FuzzBatchDecoder: BatchDecoder.Decode is the daemon's only ingest
// decoder and sees whatever arrives over the wire, so no body may make
// it panic. A WITCHB2 document it accepts must re-encode with
// AppendBinary to its own bytes; any accepted body (JSON and WITCHB1
// too) must survive a binary round trip: its profiles re-encode and
// decode back to equal profiles (see sameProfile). The seeds are real
// Pusher bodies (WITCHB2), the WITCHB1 fixture, curl bodies (JSON),
// batches of them, their truncations (at every header byte, with and
// without a header length that agrees), and a bad magic.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz FuzzBatchDecoder -fuzztime 20s ./witch
func FuzzBatchDecoder(f *testing.F) {
	prog, err := witch.Workload("listing3")
	if err != nil {
		f.Fatal(err)
	}
	small, err := witch.Run(prog, witch.Options{Tool: witch.DeadStores, Period: 97, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	legacy := legacyFixture(f)
	f.Add(legacy)
	for _, prof := range []*witch.Profile{codecProfile(f), small} {
		bin := prof.AppendBinary(nil)
		var js bytes.Buffer
		if err := prof.WriteJSONCompact(&js); err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
		f.Add(js.Bytes())
		f.Add(append(append([]byte(nil), bin...), bin...))
		f.Add(append(append([]byte(nil), legacy...), bin...))
		f.Add([]byte("[" + js.String() + "," + js.String() + "]"))
		for _, cut := range []int{1, 8, 9, len(bin) / 2, len(bin) - 1} {
			f.Add(bin[:cut])
		}
		prefix, hdr, pairs := splitDocument(f, bin)
		for k := 0; k < len(hdr); k++ {
			f.Add(bin[:len(prefix)+k])
			f.Add(withHeader(hdr[:k], pairs))
		}
		f.Add(js.Bytes()[:js.Len()/2])
		bad := append([]byte(nil), bin...)
		bad[6] = 'X' // "WITCHX2\n" — sniffs as JSON, not binary
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var dec witch.BatchDecoder
		profs, err := dec.Decode(body)
		if err != nil {
			return
		}
		// Walk the body's leading WITCHB2 documents: each is its
		// profile's encoding. A WITCHB1 document ends the walk (only
		// its decoder knows where it ends); a body of WITCHB2
		// documents alone must be walked to its end.
		rest := body
		walked := 0
		for _, pr := range profs {
			if !bytes.HasPrefix(rest, []byte("WITCHB2\n")) {
				break
			}
			doc := pr.AppendBinary(nil)
			if !bytes.HasPrefix(rest, doc) {
				t.Fatalf("document %d decoded but does not re-encode to its bytes:\nbody %q\ngot  %q", walked, rest, doc)
			}
			rest = rest[len(doc):]
			walked++
		}
		if walked == len(profs) && len(rest) > 0 && bytes.HasPrefix(body, []byte("WITCHB2\n")) {
			t.Fatalf("%d bytes left after re-encoding every document", len(rest))
		}

		var batch []byte
		for _, pr := range profs {
			batch = pr.AppendBinary(batch)
		}
		// A second decoder, so the first batch's profiles stay valid.
		var again witch.BatchDecoder
		back, err := again.Decode(batch)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(back) != len(profs) {
			t.Fatalf("round trip decoded %d profiles, want %d", len(back), len(profs))
		}
		for i := range profs {
			if !sameProfile(t, profs[i], back[i]) {
				t.Fatalf("profile %d drifted through the round trip:\nwant %s\ngot  %s",
					i, jsonOf(t, profs[i]), jsonOf(t, back[i]))
			}
		}
	})
}

// FuzzReadProfileJSON: ReadProfileJSON loads files and curl bodies, so
// no input may make it panic, and a profile it accepts must survive a
// WriteJSON round trip to an equal profile. The seeds are WriteJSON and
// WriteJSONCompact outputs and their truncations.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz FuzzReadProfileJSON -fuzztime 10s ./witch
func FuzzReadProfileJSON(f *testing.F) {
	prof := codecProfile(f)
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return prof.WriteJSON(b) },
		func(b *bytes.Buffer) error { return prof.WriteJSONCompact(b) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		doc := buf.Bytes()
		f.Add(doc)
		for _, cut := range []int{0, 1, len(doc) / 4, len(doc) / 2, len(doc) - 2} {
			f.Add(doc[:cut])
		}
	}

	f.Fuzz(func(t *testing.T, doc []byte) {
		pr, err := witch.ReadProfileJSON(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := pr.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted profile does not re-encode: %v", err)
		}
		back, err := witch.ReadProfileJSON(&buf)
		if err != nil {
			t.Fatalf("re-encoded profile does not decode: %v", err)
		}
		if !sameProfile(t, pr, back) {
			t.Fatalf("profile drifted through the round trip:\nwant %s\ngot  %s", jsonOf(t, pr), jsonOf(t, back))
		}
	})
}

// sameProfile compares every serialized field: the canonical JSON for
// the metadata, and the pairs exactly (JSON would hide a string's
// invalid UTF-8 bytes).
func sameProfile(t *testing.T, a, b *witch.Profile) bool {
	ap, bp := a.TopPairs(0), b.TopPairs(0)
	if len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if ap[i] != bp[i] {
			return false
		}
	}
	return jsonOf(t, a) == jsonOf(t, b)
}
