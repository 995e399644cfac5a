package daemon

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/wal"
)

// TestHintBytesGaugeMatchesRecount: the per-peer hint byte gauge
// (witchd_hint_bytes_peer) counts encoded record lengths, so appends
// leave it exactly where a reopen's recount from disk puts it — it does
// not jump after a drain, an eviction or a restart — and memory mode
// counts the same bytes for the same hints.
func TestHintBytesGaugeMatchesRecount(t *testing.T) {
	const peer = "http://peer.test"
	dir := t.TempDir()
	disk, err := openHintStore(dir, 0, wal.Options{NoSync: true}, []string{peer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := openHintStore("", 0, wal.Options{}, []string{peer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		id := fmt.Sprintf("pusher-%d", i%3)
		body := []byte(strings.Repeat("x", 10+i*40))
		for _, hs := range []*hintStore{disk, mem} {
			if err := hs.append(peer, fuzzTS, id, uint64(i+1), "application/json", body); err != nil {
				t.Fatal(err)
			}
		}
	}
	appended := disk.stats()[0]
	if got := mem.stats()[0]; got != appended {
		t.Fatalf("memory-mode gauge %+v, disk-mode %+v", got, appended)
	}
	disk.close()

	reopened, err := openHintStore(dir, 0, wal.Options{NoSync: true}, []string{peer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.close()
	if got := reopened.stats()[0]; got != appended {
		t.Fatalf("gauge after %d appends %+v, recount on reopen %+v", appended.Pending, appended, got)
	}
}
