package witch_test

import (
	"bytes"
	"testing"

	"repro/witch"
)

// FuzzBatchDecoder: BatchDecoder.Decode is the daemon's only ingest
// decoder and sees whatever arrives over the wire, so no body may make
// it panic. Any body it accepts must survive a binary round trip: its
// profiles re-encode with AppendBinary and decode back to equal
// profiles (see sameProfile). The seeds are real
// Pusher bodies (binary) and curl bodies (JSON), batches of both, their
// truncations, and a bad magic.
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
	for _, prof := range []*witch.Profile{codecProfile(f), small} {
		bin, err := prof.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		var js bytes.Buffer
		if err := prof.WriteJSONCompact(&js); err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
		f.Add(js.Bytes())
		f.Add(append(append([]byte(nil), bin...), bin...))
		f.Add([]byte("[" + js.String() + "," + js.String() + "]"))
		for _, cut := range []int{1, 8, 9, len(bin) / 2, len(bin) - 1} {
			f.Add(bin[:cut])
		}
		f.Add(js.Bytes()[:js.Len()/2])
		bad := append([]byte(nil), bin...)
		bad[6] = 'X' // "WITCHX1\n" — sniffs as JSON, not binary
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var dec witch.BatchDecoder
		profs, err := dec.Decode(body)
		if err != nil {
			return
		}
		var batch []byte
		for i, pr := range profs {
			if batch, err = pr.AppendBinary(batch); err != nil {
				t.Fatalf("profile %d decoded but does not re-encode: %v", i, err)
			}
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
