package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/wire"
)

// withTrailer appends the CRC-32C trailer Snapshot writes to body.
func withTrailer(body []byte) []byte {
	out := binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, snapCRCTable))
	return binary.BigEndian.AppendUint32(out, snapTrailerMagic)
}

// sealSnapshot is a snapshot file of the given version holding imgs,
// trailer included.
func sealSnapshot(version uint64, imgs map[string]*PartitionImage) []byte {
	e := agg.NewEncoder(nil)
	for _, x := range [...]uint64{version, 1, 0, 0} { // anchor 1, no counts
		e.Uint(x)
	}
	wire.EncodeMap(e, imgs, func(img *PartitionImage) { img.Encode(e) })
	e.Blob(nil)
	return withTrailer(e.Bytes())
}

// richStore holds keyed and anonymous partitions in live buckets and
// in the rollup, and a partition one of whose image buckets did not fit
// the ring (its slot held another start) and was folded into its
// rollup.
func richStore() (*Store, Config) {
	clk := newFakeClock()
	cfg := Config{Window: time.Minute, Buckets: 4, Now: clk.now}
	s := New(cfg)
	for i := 0; i < 6; i++ {
		s.IngestKeyedAt("alice", synth("prog-a", float64(i+1)), clk.now())
		s.IngestKeyedAt("bob", synth("prog-b", 2), clk.now())
		s.Ingest(synth("prog-anon", 3))
		clk.advance(time.Minute)
	}
	now := clk.now().Truncate(time.Minute)
	s.Ingest(synth("prog-anon", 4))
	src := New(cfg)
	src.IngestKeyedAt("carol", synth("prog-c", 5), now)
	img := src.PartitionImage("carol")
	img.Buckets = append(img.Buckets, PartitionBucket{
		StartUnixNano: now.Add(-4 * time.Minute).UnixNano(), // now's slot
		State:         img.Buckets[0].State,
	})
	s.ReplacePartition("carol", img)
	return s, cfg
}

// TestSnapshotDeterministic: Snapshot → Restore → Snapshot gives the
// same bytes, anchor and extra blob, and the restored store exports
// the same partitions, for a store holding every kind of partition.
func TestSnapshotDeterministic(t *testing.T) {
	s, cfg := richStore()
	if st := s.Stats(); st.EvictedBuckets == 0 || st.Partitions != 3 {
		t.Fatalf("test store: %+v, want evicted buckets and 3 keyed partitions", st)
	}
	if s.rollup["carol"] == nil || s.rollup[""] == nil || s.rollup["alice"] == nil {
		t.Fatal("test store lacks a folded image bucket or a rollup")
	}
	var first bytes.Buffer
	if err := s.Snapshot(&first, 42, []byte("dedup image")); err != nil {
		t.Fatal(err)
	}
	r := New(cfg)
	anchor, extra, err := r.Restore(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if anchor != 42 || string(extra) != "dedup image" {
		t.Fatalf("restore returned anchor %d, extra %q", anchor, extra)
	}
	var second bytes.Buffer
	if err := r.Snapshot(&second, anchor, extra); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("snapshot of the restored store differs: %d vs %d bytes", first.Len(), second.Len())
	}
	if !bytes.Equal(exportBytes(r.Export(0)), exportBytes(s.Export(0))) {
		t.Fatal("restored store exports other partitions")
	}
}

// rewriteCount replaces the one count in payload that directly
// precedes elem and now reads was with count.
func rewriteCount(t testing.TB, payload []byte, was byte, elem []byte, count uint64) []byte {
	t.Helper()
	at := append([]byte{was}, elem...)
	if n := bytes.Count(payload, at); n != 1 {
		t.Fatalf("count before %q found %d times in the encoding", elem, n)
	}
	i := bytes.Index(payload, at)
	out := binary.AppendUvarint(append([]byte(nil), payload[:i]...), count)
	return append(out, payload[i+1:]...)
}

// TestRestoreBoundsCounts: every count in a valid snapshot — the
// partitions, a partition's buckets, a State's metas and pairs, the
// extra blob's length — rewritten to claim 1<<20 elements fails the
// restore without the store allocating for them.
func TestRestoreBoundsCounts(t *testing.T) {
	const start = 0x7eadbeefcafe
	st := &agg.State{Metas: []agg.MetaState{{Tool: "bomb-meta"}}, Pairs: []agg.PairState{{Tool: "bomb-pair"}}}
	sn := &snapshot{
		images: map[string]*PartitionImage{"bomb-part": {
			WindowNanos: int64(time.Minute),
			Buckets:     []PartitionBucket{{StartUnixNano: start, State: st}},
		}},
		extra: []byte("bomb-extra"),
	}
	file := sn.encode()
	body := file[:len(file)-8]
	str := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	for _, c := range []struct {
		name string
		was  byte
		elem []byte
	}{
		{"partitions", 1, str("bomb-part")},
		{"buckets", 1, binary.AppendVarint(nil, start)},
		{"state metas", 1, str("bomb-meta")},
		{"state pairs", 1, str("bomb-pair")},
		{"extra length", byte(len(sn.extra)), sn.extra},
	} {
		bomb := withTrailer(rewriteCount(t, body, c.was, c.elem, 1<<20))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := New(Config{}).Restore(bytes.NewReader(bomb))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count of 1<<20 restored", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: restoring %d bytes allocated %d MB", c.name, len(bomb), grew>>20)
		}
	}
	if _, _, err := New(Config{}).Restore(bytes.NewReader(file)); err != nil {
		t.Fatalf("the unbombed snapshot: %v", err)
	}
}

// FuzzRestore: Restore reads a snapshot file from disk at startup,
// where recovery must survive any content by skipping the file. No
// input may make the decode, the install or a snapshot of the restored
// store panic; an accepted file re-encodes to its own bytes. Each input
// is tried as a whole file and, to get past the CRC, as a body with its
// trailer appended. Seeds are a snapshot of a store holding every kind
// of partition, one of an empty store, and their bodies.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s -fuzzminimizetime 100x ./internal/store
func FuzzRestore(f *testing.F) {
	rich, cfg := richStore()
	for _, s := range []*Store{rich, New(cfg)} {
		var buf bytes.Buffer
		if err := s.Snapshot(&buf, 7, []byte("extra")); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-8])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, file := range [][]byte{payload, withTrailer(payload)} {
			sn, err := decodeSnapshot(file)
			if err != nil {
				continue
			}
			if !bytes.Equal(sn.encode(), file) {
				t.Fatal("an accepted snapshot does not re-encode to its bytes")
			}
			s := New(Config{Window: time.Minute, Buckets: 4})
			anchor, extra, err := s.Restore(bytes.NewReader(file))
			if err != nil {
				t.Fatalf("a decodable snapshot failed to restore: %v", err)
			}
			s.Export(0)
			if err := s.Snapshot(&bytes.Buffer{}, anchor, extra); err != nil {
				t.Fatal(err)
			}
		}
	})
}
