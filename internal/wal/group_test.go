package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestGroupCommitConcurrentAppends: many goroutines appending through
// the group committer must each get a distinct LSN, the LSN space must
// stay dense, and every acked payload must replay under exactly the LSN
// its Append returned — the same contract the per-append path gives.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		t.Run(fmt.Sprintf("delay=%v", delay), func(t *testing.T) {
			dir := t.TempDir()
			j, err := Open(dir, Options{GroupCommit: true, MaxCommitDelay: delay, SegmentBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			const workers, per = 8, 50
			var mu sync.Mutex
			acked := make(map[uint64]string, workers*per)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						payload := fmt.Sprintf("w%d-i%d", w, i)
						lsn, err := j.Append([]byte(payload))
						if err != nil {
							t.Errorf("append %s: %v", payload, err)
							return
						}
						mu.Lock()
						if prev, dup := acked[lsn]; dup {
							t.Errorf("lsn %d acked twice: %q and %q", lsn, prev, payload)
						}
						acked[lsn] = payload
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if len(acked) != workers*per {
				t.Fatalf("acked %d LSNs, want %d", len(acked), workers*per)
			}
			for lsn := uint64(1); lsn <= workers*per; lsn++ {
				if _, ok := acked[lsn]; !ok {
					t.Fatalf("LSN space not dense: %d missing", lsn)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Append([]byte("late")); !errors.Is(err, ErrFailed) {
				t.Fatalf("append after Close: got %v, want ErrFailed", err)
			}
			replayed := 0
			err = Replay(dir, 0, func(r Record) error {
				replayed++
				if want := acked[r.LSN]; string(r.Payload) != want {
					return fmt.Errorf("lsn %d replayed %q, acked %q", r.LSN, r.Payload, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if replayed != workers*per {
				t.Fatalf("replayed %d records, want %d", replayed, workers*per)
			}
		})
	}
}

// TestGroupCommitFaultedBatch: with a disk fault injected under the
// gang, every waiter of the failed commit must get the error, none may
// be falsely acked, no LSN may be consumed, and the journal must stay
// replayable — recoverable in place for rollback-able faults, after an
// Open for a torn write.
func TestGroupCommitFaultedBatch(t *testing.T) {
	cases := []struct {
		name  string
		plan  fault.Plan
		fatal bool // torn tail: journal fails, recovery happens at Open
	}{
		{"sync fail", fault.Plan{Seed: 7, SyncFail: 1}, false},
		{"short write", fault.Plan{Seed: 7, ShortWrite: 1}, false},
		{"enospc", fault.Plan{Seed: 7, ENOSPC: 1}, false},
		{"torn record", fault.Plan{Seed: 7, TornRecord: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// A generous linger so the concurrent appends below gang up
			// into few (ideally one) batches.
			j, err := Open(dir, Options{GroupCommit: true, MaxCommitDelay: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			// Rate 1 fires at every opportunity, so every gang fails no
			// matter how the appends happened to batch.
			j.opts.Injector = fault.NewInjector(tc.plan)
			const n = 16
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					lsn, err := j.Append([]byte(fmt.Sprintf("doomed-%d", i)))
					if err == nil {
						t.Errorf("append %d falsely acked with lsn %d", i, lsn)
					}
					errs[i] = err
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err == nil {
					t.Fatalf("waiter %d has no error", i)
				}
				if tc.fatal && !errors.Is(err, ErrFailed) {
					t.Fatalf("waiter %d: torn batch returned %v, want ErrFailed", i, err)
				}
				if !tc.fatal && errors.Is(err, ErrFailed) {
					t.Fatalf("waiter %d: recoverable fault escalated to ErrFailed: %v", i, err)
				}
			}
			if j.Failed() != tc.fatal {
				t.Fatalf("Failed() = %v, want %v", j.Failed(), tc.fatal)
			}

			if tc.fatal {
				// Torn: reopen recovers; nothing from the doomed gang may
				// survive, and the first post-recovery LSN is 1.
				j.Close()
				j2, err := Open(dir, Options{GroupCommit: true})
				if err != nil {
					t.Fatal(err)
				}
				j = j2
			} else {
				// Rollback-able: the journal keeps serving once the disk
				// heals. Clearing the injector is race-free — the last
				// append's done-channel receive happens-before this write,
				// which happens-before the next enqueue.
				j.opts.Injector = nil
			}
			lsn, err := j.Append([]byte("alive"))
			if err != nil {
				t.Fatalf("append after failed gang: %v", err)
			}
			if lsn != 1 {
				t.Fatalf("first successful LSN = %d, want 1 (a rolled-back gang must not consume LSNs)", lsn)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			var got []string
			if err := Replay(dir, 0, func(r Record) error {
				got = append(got, fmt.Sprintf("%d:%s", r.LSN, r.Payload))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != "1:alive" {
				t.Fatalf("replay = %v, want exactly [1:alive]", got)
			}
		})
	}
}

// TestGroupCommitRotation: gangs must respect segment rotation so GC and
// recovery see the same multi-segment layout the per-append path builds.
func TestGroupCommitRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{GroupCommit: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	payload := []byte("0123456789abcdef0123456789abcdef")
	// Sequential appends keep every gang at size 1, making the rotation
	// points deterministic (concurrent gangs are covered above — rotation
	// only ever happens between gangs, never inside one).
	for i := 0; i < n; i++ {
		if _, err := j.Append(payload); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Recovery(); got.LastLSN != n || got.TornTail {
		t.Fatalf("recovery after rotated group commits = %+v, want LastLSN=%d and no tear", got, n)
	}
	if j2.Recovery().Segments < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", j2.Recovery().Segments)
	}
}

// TestGroupCommitLingerStopsAtInflight: the committer's linger ends as
// soon as its gang holds every record Options.Inflight reports, waits
// for producers that are counted but not yet queued, and without the
// count runs the whole MaxCommitDelay.
func TestGroupCommitLingerStopsAtInflight(t *testing.T) {
	var inflight atomic.Int64
	j, err := Open(t.TempDir(), Options{GroupCommit: true, MaxCommitDelay: 5 * time.Second,
		Inflight: func() int { return int(inflight.Load()) }})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// An idle journal: the lone record in flight commits at once.
	inflight.Store(1)
	t0 := time.Now()
	if _, err := j.Append([]byte("alone")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("a lone append waited %v for the linger", d)
	}

	// Four producers admitted together but queueing 20 ms apart land
	// in one gang.
	inflight.Store(4)
	before := j.Commits()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 20 * time.Millisecond)
			if _, err := j.Append([]byte(fmt.Sprintf("late-%d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := j.Commits() - before; got != 1 {
		t.Fatalf("4 announced appends took %d commits, want one gang", got)
	}

	// Without a count, the linger has no earlier stop than its delay.
	const delay = 30 * time.Millisecond
	j2, err := Open(t.TempDir(), Options{GroupCommit: true, MaxCommitDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	t0 = time.Now()
	if _, err := j2.Append([]byte("uncounted")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < delay {
		t.Fatalf("uncounted append committed after %v, before the %v linger", d, delay)
	}
}
