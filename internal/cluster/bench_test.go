package cluster

import (
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/internal/store"
	"repro/witch"
)

// BenchmarkShardDeltaCodec encodes and decodes one fleet-sized
// /v1/shard reply: a full delta of 10 pusher partitions, each holding
// 60 pairs over two programs, with its version vector and a hint
// ledger. One op is what a peer and a coordinator pay per full leg.
func BenchmarkShardDeltaCodec(b *testing.B) {
	exp := &store.Export{Parts: make(map[string]*agg.State)}
	ver := store.ExportVersion{Gen: 1 << 60, BucketIdx: 1 << 20, Epochs: make(map[string]uint64)}
	for k := 0; k < 10; k++ {
		var p agg.Partition
		for prog := 0; prog < 2; prog++ {
			pairs := make([]witch.Pair, 30)
			for i := range pairs {
				pairs[i] = witch.Pair{
					Src:   fmt.Sprintf("src/file%02d.c:fn%02d:%d", i%7, i, 100+i),
					Dst:   fmt.Sprintf("src/file%02d.c:fn%02d:%d", i%5, i, 200+i),
					Chain: fmt.Sprintf("main->fn%02d->fn%02d", i, i+1),
					Waste: float64(k*i) * 1.25, Use: float64(i) * 3.5,
					SrcLine: 100 + i, DstLine: 200 + i,
				}
			}
			p.Merge(witch.NewProfile(witch.Profile{
				Program: fmt.Sprintf("prog%d", prog), Tool: string(witch.DeadStores), Waste: 10, Use: 20,
			}, pairs))
		}
		id := fmt.Sprintf("host-%02d", k)
		exp.Parts[id] = p.State()
		ver.Epochs[id] = uint64(1000 + k)
	}
	sd := &ShardDelta{
		Delta:  &store.ExportDelta{Full: true, Export: exp, Ver: ver},
		Hinted: map[string][]string{"host-03": {"http://10.0.0.2:9147"}},
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sd.AppendBinary(buf[:0])
		if _, err := decodeShardDelta(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}
