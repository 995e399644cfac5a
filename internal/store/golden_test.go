package store

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenSnapshot: the snapshot an earlier build wrote of richStore
// (testdata/snapshot.witcha1) is what this build writes, byte for
// byte, and restores to a store that snapshots to it again.
func TestGoldenSnapshot(t *testing.T) {
	golden, err := os.ReadFile("testdata/snapshot.witcha1")
	if err != nil {
		t.Fatal(err)
	}
	s, cfg := richStore()
	var b bytes.Buffer
	if err := s.Snapshot(&b, 42, []byte("dedup image")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), golden) {
		t.Fatalf("snapshot is %d bytes, differing from the %d golden bytes", b.Len(), len(golden))
	}
	r := New(cfg)
	anchor, extra, err := r.Restore(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if anchor != 42 || string(extra) != "dedup image" {
		t.Fatalf("restore returned anchor %d, extra %q", anchor, extra)
	}
	b.Reset()
	if err := r.Snapshot(&b, anchor, extra); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), golden) {
		t.Fatal("snapshot of the restored store differs from the golden bytes")
	}
}
