package cluster

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/store"
	"repro/witch"
)

// fuzzStore holds keyed and unkeyed data in live buckets and in the
// rollup, so its exports and partition images have every field set.
// Its profiles are small, which keeps the seeds short.
func fuzzStore() *store.Store {
	clock := time.Unix(1700000000, 0)
	st := store.New(store.Config{Window: time.Minute, Buckets: 2, Now: func() time.Time { return clock }})
	prof := func(program string, k int) *witch.Profile {
		return witch.NewProfile(witch.Profile{Program: program, Tool: string(witch.DeadStores), Waste: 1, Use: 2}, []witch.Pair{
			{Src: "a", Dst: "b", Chain: "a->b", Waste: 1, Use: float64(k)},
			{Src: "c", Dst: "d", Chain: "c->d", Waste: 0.5, Use: 1},
		})
	}
	st.IngestKeyedAt("p", prof("prog", 1), clock)
	st.IngestAt(prof("anon", 2), clock)
	clock = clock.Add(2 * time.Minute) // the next ingest folds the first bucket into the rollup
	st.IngestKeyedAt("p", prof("prog", 3), clock)
	st.IngestKeyedAt("q", prof("other", 4), clock)
	return st
}

// countBomb rewrites the count of the one list or map in payload whose
// single element starts with the string bombKey, so that a few bytes
// claim count elements.
func countBomb(t testing.TB, payload []byte, count uint64) []byte {
	t.Helper()
	elem := append([]byte{1, byte(len(bombKey))}, bombKey...)
	if n := bytes.Count(payload, elem); n != 1 {
		t.Fatalf("element %q found %d times in the encoding", bombKey, n)
	}
	i := bytes.Index(payload, elem)
	out := binary.AppendUvarint(append([]byte(nil), payload[:i]...), count)
	return append(out, payload[i+1:]...)
}

const bombKey = "bomb-key"

// TestDecodersBoundMapCounts: every count a peer sends, claiming 1<<20
// elements in a few bytes, must fail its decode without the receiver
// allocating for them.
func TestDecodersBoundMapCounts(t *testing.T) {
	shard := func(b []byte) error { _, err := decodeShardDelta(b); return err }
	request := func(b []byte) error { _, err := DecodeDeltaRequest(b); return err }
	transfer := func(b []byte) error { _, err := decodePartitionTransfer(b); return err }
	bombState := &agg.State{
		Metas: []agg.MetaState{{Tool: bombKey}},
		Pairs: []agg.PairState{{Tool: "t"}},
	}
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"delta partitions", (&ShardDelta{Delta: &store.ExportDelta{Export: &store.Export{Parts: map[string]*agg.State{bombKey: {}}}}}).AppendBinary(nil), shard},
		{"delta epochs", (&ShardDelta{Delta: &store.ExportDelta{Ver: store.ExportVersion{Epochs: map[string]uint64{bombKey: 1}}}}).AppendBinary(nil), shard},
		{"tombstones", (&ShardDelta{Delta: &store.ExportDelta{Tombstones: []string{bombKey}}}).AppendBinary(nil), shard},
		{"hint ledger", (&ShardDelta{Delta: &store.ExportDelta{}, Hinted: map[string][]string{bombKey: {"x"}}}).AppendBinary(nil), shard},
		{"hinted peers", (&ShardDelta{Delta: &store.ExportDelta{}, Hinted: map[string][]string{"x": {bombKey}}}).AppendBinary(nil), shard},
		{"state metas", (&ShardDelta{Delta: &store.ExportDelta{Export: &store.Export{Parts: map[string]*agg.State{"p": bombState}}}}).AppendBinary(nil), shard},
		{"request epochs", (&DeltaRequest{Ver: store.ExportVersion{Epochs: map[string]uint64{bombKey: 1}}}).AppendBinary(nil), request},
		{"transfer rollup metas", (&PartitionTransfer{Image: &store.PartitionImage{Rollup: bombState}}).AppendBinary(nil), transfer},
	} {
		bomb := countBomb(t, c.payload, 1<<20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(bomb)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count of 1<<20 decoded", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d MB", c.name, len(bomb), grew>>20)
		}
	}
}

// TestDecodersRejectPrefixes: every strict prefix of a valid payload
// fails to decode, so a reply torn anywhere is an error, never a
// shorter answer.
func TestDecodersRejectPrefixes(t *testing.T) {
	st := fuzzStore()
	full := st.ExportDelta(0, store.ExportVersion{})
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"shard delta", (&ShardDelta{Delta: full, Hinted: map[string][]string{"p": {"http://peer:1"}}}).AppendBinary(nil),
			func(b []byte) error { _, err := decodeShardDelta(b); return err }},
		{"delta request", (&DeltaRequest{Ver: full.Ver}).AppendBinary(nil),
			func(b []byte) error { _, err := DecodeDeltaRequest(b); return err }},
		{"partition transfer", (&PartitionTransfer{Image: st.PartitionImage("p"), DedupMax: 3, DedupBits: []uint64{7, 1 << 63}}).AppendBinary(nil),
			func(b []byte) error { _, err := decodePartitionTransfer(b); return err }},
	} {
		if err := c.decode(c.payload); err != nil {
			t.Fatalf("%s: the whole payload failed: %v", c.name, err)
		}
		for n := 0; n < len(c.payload); n++ {
			if c.decode(c.payload[:n]) == nil {
				t.Fatalf("%s: the %d-byte prefix of %d bytes decoded", c.name, n, len(c.payload))
			}
		}
	}
}

// FuzzPartitionTransfer: decodePartitionTransfer reads what a peer's
// /v1/shard?pusher= sends, and the repairing node installs it with
// ReplacePartition from its repair goroutine, where a panic kills the
// node. No payload may make the decode, the install or a read of the
// installed partition panic, and an accepted payload re-encodes to its
// own bytes. Seeds are a real image (live buckets and rollup), an
// empty one, a transfer with no image, and a bucket with no State.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzPartitionTransfer$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster
func FuzzPartitionTransfer(f *testing.F) {
	st := fuzzStore()
	f.Add((&PartitionTransfer{Image: st.PartitionImage("p"), DedupMax: 3, DedupBits: []uint64{7}}).AppendBinary(nil))
	f.Add((&PartitionTransfer{Image: st.PartitionImage("absent")}).AppendBinary(nil))
	f.Add((&PartitionTransfer{}).AppendBinary(nil))
	f.Add((&PartitionTransfer{Image: &store.PartitionImage{
		WindowNanos: int64(time.Minute),
		Buckets:     []store.PartitionBucket{{StartUnixNano: 1}},
	}}).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		pt, err := decodePartitionTransfer(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(pt.AppendBinary(nil), payload) {
			t.Fatal("an accepted transfer does not re-encode to its bytes")
		}
		s := store.New(store.Config{Window: time.Minute, Buckets: 4})
		s.ReplacePartition("p", pt.Image)
		s.Export(0)
		s.PartitionImage("p")
	})
}

// FuzzShardDelta: decodeShardDelta reads what a peer's /v1/shard POST
// sends to a coordinator's scatter leg, which then patches its
// baseline for that peer and folds the result. No payload may make the
// decode, the patch or the fold panic, and a full delta's patched view
// must be exactly its payload; an accepted payload re-encodes to its
// own bytes. Seeds are a full export with a hint ledger, a delta adding
// a partition, one also tombstoning the anonymous and a keyed
// partition, an empty delta, one holding only tombstones, and a
// partition map claiming far more entries than follow.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzShardDelta$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster
func FuzzShardDelta(f *testing.F) {
	st := fuzzStore()
	full := st.ExportDelta(0, store.ExportVersion{})
	fullBytes := (&ShardDelta{Delta: full, Hinted: map[string][]string{"p": {"http://peer:1"}}}).AppendBinary(nil)
	f.Add(fullBytes)
	st.IngestKeyedAt("r", witch.NewProfile(witch.Profile{Program: "prog", Tool: string(witch.DeadStores)}, nil), time.Unix(1700000120, 0))
	f.Add((&ShardDelta{Delta: st.ExportDelta(0, full.Ver)}).AppendBinary(nil))
	st.ReplacePartition("", nil)
	st.ReplacePartition("q", nil)
	f.Add((&ShardDelta{Delta: st.ExportDelta(0, full.Ver)}).AppendBinary(nil))
	f.Add((&ShardDelta{Delta: &store.ExportDelta{}}).AppendBinary(nil))
	f.Add((&ShardDelta{Delta: &store.ExportDelta{Tombstones: []string{"p", "zz"}}}).AppendBinary(nil))
	f.Add(countBomb(f, (&ShardDelta{Delta: &store.ExportDelta{Export: &store.Export{Parts: map[string]*agg.State{bombKey: {}}}}}).AppendBinary(nil), 1<<20))
	// apply copies a delta's maps and never writes through them, so one
	// decoded baseline serves every input.
	base, err := decodeShardDelta(fullBytes)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sd, err := decodeShardDelta(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(sd.AppendBinary(nil), payload) {
			t.Fatal("an accepted delta does not re-encode to its bytes")
		}
		e := &scatterEntry{}
		e.apply(base)
		e.apply(sd)
		exp, hinted := e.snapshot()
		var view agg.View
		for _, st := range exp.Parts {
			view.Fold(st.Scope("DeadCraft", "prog"))
		}
		if !sd.Delta.Full {
			return
		}
		if len(exp.Parts) != len(sd.Delta.Export.Parts) || !hintedEqual(hinted, sd.Hinted) {
			t.Fatalf("full delta's view holds %d partitions, payload %d", len(exp.Parts), len(sd.Delta.Export.Parts))
		}
		for id, st := range sd.Delta.Export.Parts {
			if exp.Parts[id] != st {
				t.Fatalf("full delta's view differs from its payload at partition %q", id)
			}
		}
	})
}

// FuzzDeltaRequest: DecodeDeltaRequest reads the body of a /v1/shard
// POST, which any client can send, and the exporter diffs its window
// export against the decoded vector. No body may make the decode or
// the diff panic, and an accepted body re-encodes to its own bytes.
// Seeds are a first-contact request, a current vector and an empty
// one.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzDeltaRequest$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster
func FuzzDeltaRequest(f *testing.F) {
	st := fuzzStore()
	ver := st.ExportDelta(0, store.ExportVersion{}).Ver
	f.Add((&DeltaRequest{}).AppendBinary(nil))
	f.Add((&DeltaRequest{Ver: ver}).AppendBinary(nil))
	f.Add((&DeltaRequest{Ver: store.ExportVersion{Gen: ver.Gen, BucketIdx: ver.BucketIdx, Epochs: map[string]uint64{}}}).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeDeltaRequest(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(req.AppendBinary(nil), payload) {
			t.Fatal("an accepted request does not re-encode to its bytes")
		}
		st.ExportDelta(0, req.Ver)
	})
}
