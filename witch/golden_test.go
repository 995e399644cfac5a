package witch

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/wal"
)

// goldenProfiles are the profiles witchb2_batch.bin holds: one with
// every header field set (multi-byte varints among them) and two
// pairs, and one with nothing but a tool.
func goldenProfiles() []*Profile {
	full := NewProfile(Profile{
		Program: "gcc", Tool: string(DeadStores), Exhaustive: true,
		Redundancy: 0.375, Waste: 1.5e6, Use: 4e6, WallTime: 1234567891 * time.Nanosecond,
		ToolBytes: 1 << 20, Instrs: 1<<40 + 7, Loads: 300, Stores: 127,
		Stats: Stats{Samples: 1, Monitored: 2, Traps: 128, SpuriousTraps: 3, MaxBlindSpot: 1 << 33,
			Opens: 5, Closes: 6, Modifies: 7, DisasmInstrs: 8},
		Health: Health{SignalsLost: 9, RingLost: 10, ArmFailures: 11, ArmRetries: 12, ModifyFallbacks: 13,
			LBROutages: 14, ConfiguredRegs: 4, EffectiveRegs: 300, RegistersShrunk: true, SampleLoss: false, Degraded: true},
	}, []Pair{
		{Src: "gcc.c:main:10", Dst: "gcc.c:main:12", Chain: "main>f", Waste: 1e6, Use: 2.5e6, SrcLine: 10, DstLine: 12},
		{Src: "gcc.c:f:200", Dst: "gcc.c:main:12", Waste: 0.5e6, Use: 1.5e6, SrcLine: 200, DstLine: 70000},
	})
	empty := NewProfile(Profile{Tool: string(SilentStores)}, nil)
	return []*Profile{full, empty}
}

// TestGoldenEncodings: the WITCHB2 batch and the spool record an
// earlier build wrote (testdata/witchb2_batch.bin, spool_record.bin)
// are what this build writes for the same values, byte for byte, and
// decode back to those values.
func TestGoldenEncodings(t *testing.T) {
	batch, err := os.ReadFile("testdata/witchb2_batch.bin")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenProfiles()
	var enc []byte
	for _, pr := range want {
		enc = pr.AppendBinary(enc)
	}
	if !bytes.Equal(enc, batch) {
		t.Fatalf("WITCHB2 batch encodes to\n%x\nwant\n%x", enc, batch)
	}
	var dec BatchDecoder
	got, err := dec.Decode(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d profiles, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("profile %d decodes to\n%+v\nwant\n%+v", i, got[i], want[i])
		}
	}

	rec, err := os.ReadFile("testdata/spool_record.bin")
	if err != nil {
		t.Fatal(err)
	}
	if enc := appendSpoolRecord(nil, 300, batch); !bytes.Equal(enc, rec) {
		t.Fatalf("spool record encodes to %x, want %x", enc, rec)
	}
	dir := t.TempDir()
	s, err := openSpool(dir, 1<<20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.append(300, batch); err != nil {
		t.Fatal(err)
	}
	var onDisk []byte
	if err := wal.Replay(dir, 0, func(r wal.Record) error { onDisk = append([]byte(nil), r.Payload...); return nil }); err != nil {
		t.Fatal(err)
	}
	entries, err := s.readChunk(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, rec) {
		t.Fatalf("spool journal holds %x, want %x", onDisk, rec)
	}
	if len(entries) != 1 || entries[0].seq != 300 || !bytes.Equal(entries[0].body, batch) {
		t.Fatalf("spool replays %+v, want seq 300 and the batch", entries)
	}
}
