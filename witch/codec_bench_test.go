package witch_test

import (
	"bytes"
	"testing"

	"repro/witch"
)

// benchBodies builds one profile's JSON and binary wire bodies plus its
// pair count, so every decode benchmark reports comparable work.
func benchBodies(b *testing.B) (jsonBody, binBody []byte, pairs int) {
	prof := codecProfile(b)
	var jb bytes.Buffer
	if err := prof.WriteJSONCompact(&jb); err != nil {
		b.Fatal(err)
	}
	return jb.Bytes(), prof.AppendBinary(nil), len(prof.TopPairs(0))
}

// BenchmarkDecodeJSONBaseline is the pre-fast-path ingest decode: the
// reference ReadProfileJSON reader the daemon used per profile. Kept as
// the comparison floor for the pooled paths below.
func BenchmarkDecodeJSONBaseline(b *testing.B) {
	body, _, pairs := benchBodies(b)
	b.ReportMetric(float64(pairs), "pairs/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := witch.ReadProfileJSON(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePooledJSON is the pooled streaming decoder on the same
// JSON body.
func BenchmarkDecodePooledJSON(b *testing.B) {
	body, _, pairs := benchBodies(b)
	var dec witch.BatchDecoder
	b.ReportMetric(float64(pairs), "pairs/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBinary is the negotiated fast path: pooled decoder,
// binary wire format, interned strings.
func BenchmarkDecodeBinary(b *testing.B) {
	_, body, pairs := benchBodies(b)
	var dec witch.BatchDecoder
	b.ReportMetric(float64(pairs), "pairs/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBinary measures the pusher-side encode with a reused
// buffer.
func BenchmarkEncodeBinary(b *testing.B) {
	prof := codecProfile(b)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = prof.AppendBinary(buf[:0])
	}
}
