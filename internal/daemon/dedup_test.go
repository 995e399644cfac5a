package daemon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// ok is the well-behaved apply: it commits and succeeds.
func ok(commit func()) error { commit(); return nil }

// process is a test shorthand over the commit-callback signature.
func process(t *testing.T, d *Dedup, id string, seq uint64) (dup, stale bool) {
	t.Helper()
	dup, stale, err := d.Process(id, seq, ok)
	if err != nil {
		t.Fatalf("Process(%s, %d): %v", id, seq, err)
	}
	return dup, stale
}

func TestDedupWindowSemantics(t *testing.T) {
	d := NewDedup(128, 8)

	// Fresh sequences process once, retries re-ack as duplicates.
	if dup, _ := process(t, d, "a", 1); dup {
		t.Fatal("first arrival flagged duplicate")
	}
	if dup, stale := process(t, d, "a", 1); !dup || stale {
		t.Fatalf("retry of seq 1: dup=%v stale=%v, want window dup", dup, stale)
	}

	// A gap, then the skipped sequence arriving late: out-of-order
	// first arrivals inside the window must process, and their retries
	// must dedup.
	if dup, _ := process(t, d, "a", 10); dup {
		t.Fatal("seq 10 flagged duplicate")
	}
	if dup, _ := process(t, d, "a", 5); dup {
		t.Fatal("late first arrival of seq 5 flagged duplicate")
	}
	if dup, stale := process(t, d, "a", 5); !dup || stale {
		t.Fatalf("retry of late seq 5: dup=%v stale=%v", dup, stale)
	}

	// Below the window: conservative stale re-ack, never a merge.
	if dup, _ := process(t, d, "a", 1000); dup {
		t.Fatal("seq 1000 flagged duplicate")
	}
	if dup, stale := process(t, d, "a", 800); !dup || !stale {
		t.Fatalf("seq 800 under a window ending at 1000: dup=%v stale=%v, want stale re-ack", dup, stale)
	}

	// Pushers do not share windows.
	if dup, _ := process(t, d, "b", 1); dup {
		t.Fatal("pusher b's seq 1 deduped against pusher a")
	}

	st := d.Stats()
	if st.Duplicates != 2 || st.Stale != 1 {
		t.Fatalf("stats: %+v, want 2 duplicates and 1 stale", st)
	}
}

func TestDedupApplyErrorLeavesKeyUnseen(t *testing.T) {
	d := NewDedup(64, 8)
	boom := errors.New("journal full")
	if _, _, err := d.Process("a", 7, func(func()) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("apply error not surfaced: %v", err)
	}
	// The failed batch was never acked, so its retry must process.
	if dup, _ := process(t, d, "a", 7); dup {
		t.Fatal("retry after failed apply was deduped — the batch would be lost")
	}
	if dup, _ := process(t, d, "a", 7); !dup {
		t.Fatal("second retry after successful apply not deduped")
	}
}

func TestDedupWindowLapClearsGhosts(t *testing.T) {
	d := NewDedup(64, 8)
	process(t, d, "a", 3)
	// Jump more than a window ahead: seq 3's bit position is lapped.
	process(t, d, "a", 3+64)
	// The same ring slot now belongs to seq 67's range; a fresh arrival
	// at a lapped-but-cleared position must not be mistaken for seen.
	if dup, _ := process(t, d, "a", 66); dup {
		t.Fatal("ghost mark survived a window lap")
	}
}

func TestDedupPusherTableEviction(t *testing.T) {
	d := NewDedup(64, 2)
	process(t, d, "a", 1)
	process(t, d, "b", 1)
	process(t, d, "c", 1) // evicts the LRU pusher, "a"
	if st := d.Stats(); st.EvictedPushers != 1 || st.Pushers != 2 {
		t.Fatalf("stats after third pusher: %+v", st)
	}
	// The evicted pusher's retry re-merges — the documented cost of the
	// table bound. Its replacement window must at least work.
	if dup, _ := process(t, d, "a", 2); dup {
		t.Fatal("fresh sequence deduped in a rebuilt window")
	}
}

func TestDedupStateRoundTrip(t *testing.T) {
	d := NewDedup(128, 8)
	process(t, d, "a", 1)
	process(t, d, "a", 2)
	process(t, d, "b", 9)
	blob := d.State()

	r := NewDedup(128, 8)
	if err := r.Load(blob); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id  string
		seq uint64
		dup bool
		why string
	}{
		{"a", 1, true, "seen before snapshot"},
		{"a", 2, true, "seen before snapshot"},
		{"a", 3, false, "never seen"},
		{"b", 9, true, "seen before snapshot"},
		{"b", 8, false, "in-window, never seen"},
	} {
		if dup, _ := process(t, r, c.id, c.seq); dup != c.dup {
			t.Fatalf("(%s, %d) after restore: dup=%v, want %v (%s)", c.id, c.seq, dup, c.dup, c.why)
		}
	}
}

func TestDedupLoadWindowMismatchIsConservative(t *testing.T) {
	d := NewDedup(128, 8)
	process(t, d, "a", 100)
	blob := d.State()

	// Restart with a narrower window: ring positions no longer line up,
	// so everything at or below max must re-ack (possible over-dedup)
	// rather than re-merge (certain double count).
	r := NewDedup(64, 8)
	if err := r.Load(blob); err != nil {
		t.Fatal(err)
	}
	if dup, _ := process(t, r, "a", 90); !dup {
		t.Fatal("in-window sequence below max re-merged after a window-width change")
	}
	if dup, _ := process(t, r, "a", 101); dup {
		t.Fatal("sequence above max deduped after restore")
	}
}

func TestDedupManyPushersStayIndependent(t *testing.T) {
	d := NewDedup(64, 64)
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("p%02d", i)
		for seq := uint64(1); seq <= 8; seq++ {
			if dup, _ := process(t, d, id, seq); dup {
				t.Fatalf("(%s, %d) cross-pusher dedup", id, seq)
			}
		}
	}
	if st := d.Stats(); st.Pushers != 32 || st.EvictedPushers != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDedupLoadBoundsCounts: every count in a valid dedup image — the
// pusher windows, the tombstones, one window's bit words — rewritten to
// claim 1<<20 elements fails the load without allocating for them, and
// leaves the table as it was.
func TestDedupLoadBoundsCounts(t *testing.T) {
	src := NewDedup(64, 1)
	src.Process("bomb-tomb", 1, ok)
	const word = 1<<5 | 1<<9 | 1<<33 | 1<<60
	for _, seq := range []uint64{5, 9, 33, 60} {
		src.Process("bomb-pusher", seq, ok) // evicts "bomb-tomb" to a tombstone
	}
	image := src.State()
	str := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	for _, c := range []struct {
		name string
		elem []byte
	}{
		{"pushers", str("bomb-pusher")},
		{"tombstones", str("bomb-tomb")},
		{"bits", binary.AppendUvarint(nil, word)},
	} {
		at := append([]byte{1}, c.elem...)
		if n := bytes.Count(image, at); n != 1 {
			t.Fatalf("%s: count found %d times in the image", c.name, n)
		}
		i := bytes.Index(image, at)
		bomb := append(binary.AppendUvarint(append([]byte(nil), image[:i]...), 1<<20), image[i+1:]...)
		d := NewDedup(64, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := d.Load(bomb)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count of 1<<20 loaded", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: loading %d bytes allocated %d MB", c.name, len(bomb), grew>>20)
		}
		if st := d.Stats(); st.Pushers != 0 || st.Tombstones != 0 {
			t.Errorf("%s: a rejected load changed the table: %+v", c.name, st)
		}
	}
	d := NewDedup(64, 1)
	if err := d.Load(image); err != nil || !bytes.Equal(d.State(), image) {
		t.Fatalf("the unbombed image: %v", err)
	}
}
