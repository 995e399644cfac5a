package cluster

import (
	"bytes"
	"encoding/gob"
	"math/bits"
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

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendGobUint appends gob's encoding of an unsigned integer: one byte
// below 128, else the negated byte count and the big-endian bytes.
func appendGobUint(b []byte, x uint64) []byte {
	if x < 128 {
		return append(b, byte(x))
	}
	n := (bits.Len64(x) + 7) / 8
	b = append(b, byte(-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(x>>(8*i)))
	}
	return b
}

func readGobUint(b []byte) (uint64, int) {
	if b[0] < 128 {
		return uint64(b[0]), 1
	}
	n := int(-int8(b[0]))
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// mapCountBomb gob-encodes v, whose one map holds one entry under
// bombKey, and rewrites that map's entry count to count: a few bytes
// that claim far more entries than follow.
func mapCountBomb(t testing.TB, v any, count uint64) []byte {
	t.Helper()
	stream := gobBytes(t, v)
	entry := append([]byte{1, byte(len(bombKey))}, bombKey...)
	var out []byte
	found := 0
	for len(stream) > 0 {
		n, w := readGobUint(stream)
		msg := stream[w : w+int(n)]
		stream = stream[w+int(n):]
		if i := bytes.Index(msg, entry); i >= 0 {
			found++
			msg = append(appendGobUint(append([]byte(nil), msg[:i]...), count), msg[i+1:]...)
		}
		out = append(appendGobUint(out, uint64(len(msg))), msg...)
	}
	if found != 1 {
		t.Fatalf("map entry %q found %d times in the encoding", bombKey, found)
	}
	return out
}

const bombKey = "bomb-key"

// TestDecodersBoundMapCounts: gob sizes a nil map by the entry count
// the sender claims. Every map a peer sends, claiming 1<<20 entries in
// a few bytes, must fail its decode without the receiver allocating
// for them.
func TestDecodersBoundMapCounts(t *testing.T) {
	shard := func(b []byte) error { _, err := decodeShardDelta(b); return err }
	request := func(b []byte) error { _, err := DecodeDeltaRequest(bytes.NewReader(b)); return err }
	for _, c := range []struct {
		name   string
		v      any
		decode func([]byte) error
	}{
		{"delta partitions", &ShardDelta{Delta: &store.ExportDelta{Export: &store.Export{Parts: map[string]*agg.State{bombKey: {}}}}}, shard},
		{"delta epochs", &ShardDelta{Delta: &store.ExportDelta{Ver: store.ExportVersion{Epochs: map[string]uint64{bombKey: 1}}}}, shard},
		{"hint ledger", &ShardDelta{Delta: &store.ExportDelta{}, Hinted: map[string][]string{bombKey: {"x"}}}, shard},
		{"request epochs", &DeltaRequest{Ver: store.ExportVersion{Epochs: map[string]uint64{bombKey: 1}}}, request},
	} {
		bomb := mapCountBomb(t, c.v, 1<<20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(bomb)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a map claiming 1<<20 entries decoded", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d MB", c.name, len(bomb), grew>>20)
		}
	}
}

// FuzzPartitionTransfer: decodePartitionTransfer reads what a peer's
// /v1/shard?pusher= sends, and the repairing node installs it with
// ReplacePartition from its repair goroutine, where a panic kills the
// node. No payload may make the decode, the install or a read of the
// installed partition panic. Seeds are a real image (live buckets and
// rollup), an empty one, a transfer with no image, and a bucket with
// no State.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzPartitionTransfer$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster
func FuzzPartitionTransfer(f *testing.F) {
	st := fuzzStore()
	f.Add(gobBytes(f, &PartitionTransfer{Image: st.PartitionImage("p"), DedupMax: 3, DedupBits: []uint64{7}}))
	f.Add(gobBytes(f, &PartitionTransfer{Image: st.PartitionImage("absent")}))
	f.Add(gobBytes(f, &PartitionTransfer{}))
	f.Add(gobBytes(f, &PartitionTransfer{Image: &store.PartitionImage{
		WindowNanos: int64(time.Minute),
		Buckets:     []store.PartitionBucket{{StartUnixNano: 1}},
	}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		pt, err := decodePartitionTransfer(bytes.NewReader(payload))
		if err != nil {
			return
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
// must be exactly its payload. Seeds are a full export with a hint
// ledger, a delta adding a partition, one also tombstoning the
// anonymous and a keyed partition, an empty delta, a reply with no
// payload, and a partition map claiming far more entries than follow.
//
// Run the fuzzer with:
//
//	go test -run '^$' -fuzz '^FuzzShardDelta$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cluster
func FuzzShardDelta(f *testing.F) {
	st := fuzzStore()
	full := st.ExportDelta(0, store.ExportVersion{})
	fullBytes := gobBytes(f, &ShardDelta{Delta: full, Hinted: map[string][]string{"p": {"http://peer:1"}}})
	f.Add(fullBytes)
	st.IngestKeyedAt("r", witch.NewProfile(witch.Profile{Program: "prog", Tool: string(witch.DeadStores)}, nil), time.Unix(1700000120, 0))
	f.Add(gobBytes(f, &ShardDelta{Delta: st.ExportDelta(0, full.Ver)}))
	st.ReplacePartition("", nil)
	st.ReplacePartition("q", nil)
	f.Add(gobBytes(f, &ShardDelta{Delta: st.ExportDelta(0, full.Ver)}))
	f.Add(gobBytes(f, &ShardDelta{Delta: &store.ExportDelta{}}))
	f.Add(gobBytes(f, &ShardDelta{}))
	f.Add(mapCountBomb(f, &ShardDelta{Delta: &store.ExportDelta{Export: &store.Export{Parts: map[string]*agg.State{bombKey: {}}}}}, 1<<20))
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
