package daemon

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/agg"
)

// fuzzTS is a seed timestamp with every nanosecond digit in use.
var fuzzTS = time.Unix(0, 1_760_000_000_123_456_789)

// addTruncations seeds f with rec and every prefix of it.
func addTruncations(f *testing.F, rec []byte) {
	for cut := 0; cut <= len(rec); cut++ {
		f.Add(rec[:cut])
	}
}

// FuzzSplitEnvelope: splitEnvelope decodes journal records during
// recovery, where a CRC-valid record can still hold bytes no encoder
// wrote, so no payload may make it panic. Any envelope it accepts must
// re-encode through appendEnvelope to the same bytes. Seeds are keyed
// and unkeyed envelopes over JSON, binary and empty bodies, plus their
// truncations.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzSplitEnvelope$' -fuzztime 10s ./internal/daemon
func FuzzSplitEnvelope(f *testing.F) {
	addTruncations(f, appendEnvelope(fuzzTS, "", 0, false, []byte(`{"format_version":1}`)))
	addTruncations(f, appendEnvelope(fuzzTS, "pusher-7", 42, true, []byte("WITCHB1\n\x05{}")))
	addTruncations(f, appendEnvelope(fuzzTS, "p", 1<<63, true, nil))
	f.Add(appendEnvelope(time.Unix(0, -1), "", 0, false, nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ts, id, seq, keyed, body, ok := splitEnvelope(payload)
		if !ok {
			return
		}
		if got := appendEnvelope(ts, id, seq, keyed, body); !bytes.Equal(got, payload) {
			t.Fatalf("accepted envelope re-encodes differently:\n in  %x\n out %x", payload, got)
		}
	})
}

// FuzzDecodeHint: decodeHint reads hint records back from disk (drain,
// recount after a restart), so no payload may make it panic. Any record
// it accepts must re-encode through encodeHint to the same bytes. Seeds
// are hint records with and without a content type, plus their
// truncations.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzDecodeHint$' -fuzztime 10s ./internal/daemon
func FuzzDecodeHint(f *testing.F) {
	addTruncations(f, encodeHint(fuzzTS, "pusher-7", 42, "application/json", []byte(`{"format_version":1}`)))
	addTruncations(f, encodeHint(fuzzTS, "p", 1<<63, "", []byte("WITCHB1\n")))
	f.Add(encodeHint(time.Unix(0, -1), "", 0, "", nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ts, id, seq, ctype, body, ok := decodeHint(payload)
		if !ok {
			return
		}
		if got := encodeHint(ts, id, seq, ctype, body); !bytes.Equal(got, payload) {
			t.Fatalf("accepted hint re-encodes differently:\n in  %x\n out %x", payload, got)
		}
	})
}

// FuzzDedupLoad: Load reads the dedup image out of a snapshot's extra
// blob at startup. The snapshot's CRC does not vouch that an encoder
// wrote the bytes, so no image may make the load, or ingest through the
// windows it installs, panic. An accepted image of the loading Dedup's
// window width re-encodes to its own bytes; one of another width
// re-encodes to an image that itself loads and re-encodes unchanged.
// Seeds are an image with windows and a tombstone, its truncations, an
// empty table's image and an image of another width.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzDedupLoad$' -fuzztime 10s -fuzzminimizetime 100x ./internal/daemon
func FuzzDedupLoad(f *testing.F) {
	src := NewDedup(64, 2)
	src.Process("a", 70, ok)
	src.Process("a", 3, ok)
	src.Process("b", 1, ok)
	src.Process("c", 1, ok) // evicts "a" to a tombstone
	src.Process("c", 1, ok) // a duplicate
	addTruncations(f, src.State())
	f.Add(NewDedup(64, 2).State())
	wide := NewDedup(128, 2)
	wide.Process("a", 5, ok)
	f.Add(wide.State())
	f.Fuzz(func(t *testing.T, image []byte) {
		d := NewDedup(64, 2)
		if d.Load(image) != nil {
			return
		}
		got := d.State()
		if agg.NewDecoder(image).Uint() == d.Window() {
			if !bytes.Equal(got, image) {
				t.Fatal("an accepted image does not re-encode to its bytes")
			}
		} else {
			again := NewDedup(64, 2)
			if err := again.Load(got); err != nil || !bytes.Equal(again.State(), got) {
				t.Fatalf("the re-encoding of a foreign-width image does not round-trip: %v", err)
			}
		}
		for _, id := range []string{"a", "b", "c", "new"} {
			d.Process(id, 65, ok)
		}
	})
}
