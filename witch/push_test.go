package witch_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/witch"
)

func pushProfile(t *testing.T, seed int64) *witch.Profile {
	t.Helper()
	prog, err := witch.Workload("listing3")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := witch.Run(prog, witch.Options{Tool: witch.DeadStores, Period: 97, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// deadAddr reserves and releases a port so nothing is listening on it.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestPusherDelivers: profiles pushed to a live daemon arrive intact.
func TestPusherDelivers(t *testing.T) {
	var mu sync.Mutex
	var got []*witch.Profile
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ingest" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		if ct := r.Header.Get("Content-Type"); ct != witch.BinaryContentType {
			t.Errorf("Content-Type %q, want %q", ct, witch.BinaryContentType)
		}
		body, err := io.ReadAll(r.Body)
		if err != nil || !witch.IsBinaryProfile(body) {
			t.Errorf("body is not a binary profile (err %v)", err)
		}
		var dec witch.BatchDecoder
		profs, err := dec.Decode(body)
		if err != nil || len(profs) != 1 {
			t.Errorf("bad body: %d profiles, %v", len(profs), err)
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		mu.Lock()
		got = append(got, profs[0])
		mu.Unlock()
	}))
	defer srv.Close()

	p, err := witch.NewPusher(witch.PusherOptions{URL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	prof := pushProfile(t, 1)
	const n = 5
	for i := 0; i < n; i++ {
		if !p.Push(prof) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Sent != n || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d sent, 0 dropped", st, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("daemon saw %d profiles, want %d", len(got), n)
	}
	if got[0].Redundancy != prof.Redundancy || len(got[0].TopPairs(0)) != len(prof.TopPairs(0)) {
		t.Fatal("profile mutated in flight")
	}
}

// TestPusherDeadDaemonNeverBlocks is the satellite's core promise:
// with nothing listening, Push returns immediately (queue + drop), the
// profiled goroutine is never blocked on the network, and Close still
// returns. Every profile is accounted for as sent or dropped.
func TestPusherDeadDaemonNeverBlocks(t *testing.T) {
	p, err := witch.NewPusher(witch.PusherOptions{
		URL:     "http://" + deadAddr(t),
		Queue:   4,
		Retries: 1,
		Backoff: time.Millisecond,
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := pushProfile(t, 1)

	const pushes = 64
	start := time.Now()
	for i := 0; i < pushes; i++ {
		p.Push(prof) // dropped or queued, never blocked
	}
	elapsed := time.Since(start)
	// 64 pushes against a dead daemon must take caller-side queue time
	// only — far under one request timeout, let alone 64.
	if elapsed > 50*time.Millisecond {
		t.Fatalf("pushes blocked the caller for %v", elapsed)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Sent != 0 {
		t.Fatalf("sent %d to a dead daemon", st.Sent)
	}
	if st.Enqueued+st.Dropped < pushes {
		t.Fatalf("profiles unaccounted for: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatal("expected drops against a dead daemon")
	}
	if p.Push(prof) {
		t.Fatal("push after Close should report a drop")
	}
}

// TestPusherRetriesThenRecovers: a daemon that fails its first attempts
// sees the profile again via backoff retries.
func TestPusherRetriesThenRecovers(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if attempts.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
	}))
	defer srv.Close()

	p, err := witch.NewPusher(witch.PusherOptions{
		URL:     srv.URL,
		Retries: 4,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Push(pushProfile(t, 1)) {
		t.Fatal("push rejected")
	}
	// Close cuts the backoff schedule short by design, so wait for the
	// delivery to finish before closing.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Sent == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.Close()
	st := p.Stats()
	if st.Sent != 1 || st.Retries < 2 || st.Errors < 2 {
		t.Fatalf("stats = %+v, want 1 sent after >=2 retries", st)
	}
}

// TestPusherOptionValidation rejects unusable configurations.
func TestPusherOptionValidation(t *testing.T) {
	for _, opts := range []witch.PusherOptions{
		{},
		{URL: "ftp://x"},
		{URL: "http://x", Retries: -1},
	} {
		if _, err := witch.NewPusher(opts); err == nil {
			t.Fatalf("NewPusher(%+v) accepted", opts)
		}
	}
}

// TestPusherBreakerHonorsRetryAfter: a shedding daemon (429 +
// Retry-After) opens the circuit breaker for the advertised duration —
// the pusher must not hammer it with its normal millisecond backoff.
func TestPusherBreakerHonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	var attempts []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		attempts = append(attempts, time.Now())
		n := len(attempts)
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
	}))
	defer srv.Close()

	p, err := witch.NewPusher(witch.PusherOptions{
		URL:     srv.URL,
		Retries: 4,
		Backoff: time.Millisecond,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Push(pushProfile(t, 1)) {
		t.Fatal("push rejected")
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Sent == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.Close()
	st := p.Stats()
	if st.Sent != 1 {
		t.Fatalf("stats = %+v, want 1 sent", st)
	}
	if st.BreakerTrips == 0 {
		t.Fatalf("429 + Retry-After did not trip the breaker: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) < 2 {
		t.Fatalf("saw %d attempts, want >= 2", len(attempts))
	}
	// The retry must have waited out the advertised second, not the 1ms
	// backoff (with slack for coarse timers).
	if gap := attempts[1].Sub(attempts[0]); gap < 900*time.Millisecond {
		t.Fatalf("retry arrived %v after the 429, ignoring Retry-After: 1", gap)
	}
}

// TestPusherBreakerOpensOnConsecutiveFailures: repeated failures without
// any Retry-After hint still open the breaker after the threshold, so a
// dead daemon gets a cooldown's silence instead of a retry storm.
func TestPusherBreakerOpensOnConsecutiveFailures(t *testing.T) {
	var mu sync.Mutex
	var attempts []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		attempts = append(attempts, time.Now())
		mu.Unlock()
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	p, err := witch.NewPusher(witch.PusherOptions{
		URL:              srv.URL,
		Retries:          3,
		Backoff:          time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
		Logf:             func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Push(pushProfile(t, 1)) {
		t.Fatal("push rejected")
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Dropped == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.Close()
	st := p.Stats()
	if st.BreakerTrips == 0 {
		t.Fatalf("%d consecutive failures never tripped the breaker: %+v", st.Errors, st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) < 3 {
		t.Fatalf("saw %d attempts, want >= 3", len(attempts))
	}
	// After the second failure the breaker is open: the third attempt is
	// the half-open trial and must arrive no sooner than the applied
	// cooldown — equal-jittered to [cooldown/2, cooldown], so the floor
	// is half the configured 300ms (minus scheduling slop).
	if gap := attempts[2].Sub(attempts[1]); gap < 140*time.Millisecond {
		t.Fatalf("half-open trial arrived %v after the threshold failure, cooldown ignored", gap)
	}
}

// TestPusherDropAccountingAndLogging: drops are split by reason, the
// first drop of an outage logs exactly once, and recovery logs a
// summary and re-arms the first-drop log.
func TestPusherDropAccountingAndLogging(t *testing.T) {
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()

	var logMu sync.Mutex
	var logs []string
	p, err := witch.NewPusher(witch.PusherOptions{
		URL:     srv.URL,
		Retries: 1,
		Backoff: time.Millisecond,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := pushProfile(t, 1)

	// Outage: both attempts fail, the profile drops as retries_exhausted.
	for i := 0; i < 3; i++ {
		p.Push(prof)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Dropped < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	// Recovery: the next delivery succeeds and logs the summary.
	healthy.Store(true)
	p.Push(prof)
	for p.Stats().Sent == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.Close()
	p.Push(prof) // after Close: counted under "closed"

	st := p.Stats()
	if st.DroppedByReason[witch.DropRetries] != 3 {
		t.Fatalf("DroppedByReason[%s] = %d, want 3 (%+v)", witch.DropRetries, st.DroppedByReason[witch.DropRetries], st)
	}
	if st.DroppedByReason[witch.DropClosed] != 1 {
		t.Fatalf("DroppedByReason[%s] = %d, want 1 (%+v)", witch.DropClosed, st.DroppedByReason[witch.DropClosed], st)
	}
	var sum uint64
	for _, n := range st.DroppedByReason {
		sum += n
	}
	if sum != st.Dropped {
		t.Fatalf("DroppedByReason sums to %d, Dropped = %d", sum, st.Dropped)
	}

	logMu.Lock()
	defer logMu.Unlock()
	var drops, recoveries int
	for _, line := range logs {
		if strings.Contains(line, "dropping") {
			drops++
		}
		if strings.Contains(line, "recovered") {
			recoveries++
		}
	}
	// 3 drops in the outage plus 1 after Close, but only the outage's
	// first and the post-Close episode's first may log.
	if drops != 2 {
		t.Fatalf("%d first-drop log lines (want 2: outage start + post-close):\n%s", drops, strings.Join(logs, "\n"))
	}
	if recoveries != 1 {
		t.Fatalf("%d recovery log lines (want 1):\n%s", recoveries, strings.Join(logs, "\n"))
	}
}

// TestPusherConcurrentPush: many goroutines pushing through one pusher
// race only on the queue; under -race this covers the client side of
// the concurrency satellite.
func TestPusherConcurrentPush(t *testing.T) {
	var received atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		received.Add(1)
	}))
	defer srv.Close()

	p, err := witch.NewPusher(witch.PusherOptions{URL: srv.URL, Queue: 256})
	if err != nil {
		t.Fatal(err)
	}
	prof := pushProfile(t, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p.Push(prof)
			}
		}()
	}
	wg.Wait()
	p.Close()
	st := p.Stats()
	if st.Sent+st.Dropped != 80 {
		t.Fatalf("profiles unaccounted for: %+v", st)
	}
	if got := received.Load(); got != int64(st.Sent) {
		t.Fatalf("daemon saw %d, pusher claims %d sent", got, st.Sent)
	}
}
