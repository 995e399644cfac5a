package witch

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spoolAppend is a test shorthand that fails on any append error.
func spoolAppend(t *testing.T, s *spool, seq uint64, body string) {
	t.Helper()
	if _, err := s.append(seq, []byte(body)); err != nil {
		t.Fatalf("append(%d): %v", seq, err)
	}
}

// TestSpoolCrashReplayOrderAndAckFloor is the kill -9 property pair:
// after an unsynced abandon, a reopened spool replays exactly the
// unacknowledged entries, oldest first, and an acked LSN is never seen
// again — across any number of crashes.
func TestSpoolCrashReplayOrderAndAckFloor(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 20; seq++ {
		spoolAppend(t, s, seq, fmt.Sprintf("body-%02d", seq))
	}
	// Ack the first five (their LSNs are dense from the journal floor).
	chunk, err := s.readChunk(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ack(chunk[4].lsn); err != nil {
		t.Fatal(err)
	}
	s.abandon() // kill -9: no sync, no close

	s, err = openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.pending(); got != 15 {
		t.Fatalf("pending after crash = %d, want 15", got)
	}
	chunk, err = s.readChunk(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk) != 15 {
		t.Fatalf("replayed %d entries, want 15", len(chunk))
	}
	for i, e := range chunk {
		wantSeq := uint64(6 + i)
		if e.seq != wantSeq || string(e.body) != fmt.Sprintf("body-%02d", wantSeq) {
			t.Fatalf("replay[%d] = (seq %d, %q), want seq %d — acked entry replayed or order lost",
				i, e.seq, e.body, wantSeq)
		}
	}

	// Second crash after acking everything: the next incarnation owes
	// the daemon nothing.
	if err := s.ack(chunk[len(chunk)-1].lsn); err != nil {
		t.Fatal(err)
	}
	s.abandon()
	s, err = openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.pending(); got != 0 {
		t.Fatalf("pending after full ack + crash = %d, want 0", got)
	}
	if chunk, err = s.readChunk(100); err != nil || len(chunk) != 0 {
		t.Fatalf("replay after full ack: %d entries, err %v", len(chunk), err)
	}
	// Appends after recovery land above the acked floor and replay.
	spoolAppend(t, s, 21, "body-21")
	if chunk, err = s.readChunk(100); err != nil || len(chunk) != 1 || chunk[0].seq != 21 {
		t.Fatalf("post-recovery append not replayable: %v, err %v", chunk, err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpoolIdentityAndSeqFloorSurviveCrash: the durable pusher identity
// and the sequence reservation must survive kill -9, so the idempotency
// key space is never reused.
func TestSpoolIdentityAndSeqFloorSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := s.meta.PusherID
	if id == "" {
		t.Fatal("fresh spool has no pusher identity")
	}
	if err := s.reserveSeq(5000); err != nil {
		t.Fatal(err)
	}
	s.abandon()

	s, err = openSpool(dir, 256, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if s.meta.PusherID != id {
		t.Fatalf("pusher identity changed across crash: %q -> %q", id, s.meta.PusherID)
	}
	if s.meta.SeqFloor < 5000 {
		t.Fatalf("sequence floor regressed to %d — sequences could be reused", s.meta.SeqFloor)
	}
}

// TestSpoolEvictionBoundsAndCounts: the disk bound sheds oldest-first,
// counts every shed entry, keeps the count across crashes, and the
// survivors replay in order.
func TestSpoolEvictionBoundsAndCounts(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, 128, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 40)
	var evicted uint64
	for seq := uint64(1); seq <= 60; seq++ {
		n, err := s.append(seq, body)
		if err != nil {
			t.Fatalf("append(%d): %v", seq, err)
		}
		evicted += n
	}
	if evicted == 0 {
		t.Fatal("60x48-byte entries under a 512-byte bound evicted nothing")
	}
	if got := s.meta.Evicted; got != evicted {
		t.Fatalf("meta.Evicted = %d, want %d", got, evicted)
	}
	if s.pending()+evicted != 60 {
		t.Fatalf("pending %d + evicted %d != 60: entries leaked", s.pending(), evicted)
	}
	chunk, err := s.readChunk(100)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(chunk)) != s.pending() {
		t.Fatalf("replay found %d entries, pending says %d", len(chunk), s.pending())
	}
	// Oldest-first eviction: the survivors are the newest, contiguous
	// through seq 60, still in append order.
	for i := 1; i < len(chunk); i++ {
		if chunk[i].seq != chunk[i-1].seq+1 {
			t.Fatalf("survivors not contiguous: %d then %d", chunk[i-1].seq, chunk[i].seq)
		}
	}
	if chunk[len(chunk)-1].seq != 60 {
		t.Fatalf("newest survivor is seq %d, want 60 — eviction shed the wrong end", chunk[len(chunk)-1].seq)
	}

	s.abandon()
	s, err = openSpool(dir, 128, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if s.meta.Evicted != evicted {
		t.Fatalf("lifetime eviction count lost across crash: %d, want %d", s.meta.Evicted, evicted)
	}
}

// TestJitterBounds pins the two jitter envelopes: full jitter in
// (0, d], equal jitter in [d/2, d], and the Retry-After floor honored
// exactly with upward-only spread.
func TestJitterBounds(t *testing.T) {
	p := &Pusher{rng: rand.New(rand.NewSource(7))}
	const d = 400 * time.Millisecond
	for i := 0; i < 2000; i++ {
		if v := p.jitterFull(d); v <= 0 || v > d {
			t.Fatalf("jitterFull draw %v outside (0, %v]", v, d)
		}
		if v := p.jitterEqual(d); v < d/2 || v > d {
			t.Fatalf("jitterEqual draw %v outside [%v, %v]", v, d/2, d)
		}
	}
	if p.jitterFull(0) != 0 || p.jitterEqual(0) != 0 {
		t.Fatal("zero interval must stay zero")
	}
}

// TestParseRetryAfter covers both RFC 9110 forms.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("5"); d != 5*time.Second {
		t.Fatalf("delay-seconds: %v", d)
	}
	future := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= time.Second || d > 3*time.Second {
		t.Fatalf("HTTP-date 3s out parsed as %v", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	for _, h := range []string{"", "0", "-3", "soon", past} {
		if d := parseRetryAfter(h); d != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want 0", h, d)
		}
	}
}

// TestPusherSpoolConcurrentExactlyOnce is the -race property test for
// the whole client pipeline: concurrent Push against a daemon that
// fails every third request, with spill, replay, and Close racing. No
// entry may be lost, none delivered twice, and the pusher's ledger must
// balance exactly.
func TestPusherSpoolConcurrentExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	acked := map[uint64]int{}
	var reqN atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseUint(r.Header.Get(PusherSeqHeader), 10, 64)
		if err != nil {
			t.Errorf("ingest without a sequence header: %v", err)
			http.Error(w, "no seq", http.StatusBadRequest)
			return
		}
		if reqN.Add(1)%3 == 0 {
			http.Error(w, "induced", http.StatusInternalServerError)
			return
		}
		mu.Lock()
		acked[seq]++
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"profiles":1}`))
	}))
	defer ts.Close()

	p, err := NewPusher(PusherOptions{
		URL:               ts.URL,
		Queue:             256,
		Backoff:           time.Millisecond,
		BreakerThreshold:  1000, // keep sending through induced failures
		Logf:              func(string, ...any) {},
		SpoolDir:          t.TempDir(),
		SpoolSegmentBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := pushTestProfile(t)

	const workers, perWorker = 4, 30
	var wg sync.WaitGroup
	var accepted atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if p.Push(prof) {
					accepted.Add(1)
				}
				if i%7 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()

	// Drain: every accepted profile must resolve to an ack (the server
	// only fails transiently, the spool never overflows).
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := p.Stats()
		if st.Sent == accepted.Load() && st.SpoolPending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never drained: accepted %d, stats %+v", accepted.Load(), st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.Dropped != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
	if st.Enqueued != st.Sent+st.Dropped+st.SpoolPending {
		t.Fatalf("ledger does not balance: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(len(acked)) != accepted.Load() {
		t.Fatalf("daemon acked %d distinct sequences, client had %d accepted", len(acked), accepted.Load())
	}
	for seq, n := range acked {
		if n != 1 {
			t.Fatalf("sequence %d acked %d times — an acknowledged entry was re-sent", seq, n)
		}
	}
}

// TestPusherSpoolRestartResumesWhereItDied: kill -9 a pusher with a
// spooled backlog (daemon down), restart it against a healthy daemon,
// and the backlog arrives complete, in order, under the same pusher
// identity, with no sequence reused by post-restart pushes.
func TestPusherSpoolRestartResumesWhereItDied(t *testing.T) {
	dir := t.TempDir()
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))

	p, err := NewPusher(PusherOptions{
		URL:              down.URL,
		Queue:            64,
		Backoff:          time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Millisecond,
		Logf:             func(string, ...any) {},
		SpoolDir:         dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	firstID := p.ID()
	prof := pushTestProfile(t)
	const n = 12
	for i := 0; i < n; i++ {
		if !p.Push(prof) {
			t.Fatalf("push %d rejected", i)
		}
	}
	// Wait until the backlog is durably parked, then die without sync.
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().SpoolPending < n {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never spooled: %+v", p.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.Abort()
	down.Close()

	var mu sync.Mutex
	var seqs []uint64
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.ParseUint(r.Header.Get(PusherSeqHeader), 10, 64)
		if got := r.Header.Get(PusherIDHeader); got != firstID {
			t.Errorf("pusher identity changed across restart: %q -> %q", firstID, got)
		}
		mu.Lock()
		seqs = append(seqs, seq)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"profiles":1}`))
	}))
	defer up.Close()

	p2, err := NewPusher(PusherOptions{
		URL:      up.URL,
		Queue:    64,
		Backoff:  time.Millisecond,
		Logf:     func(string, ...any) {},
		SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID() != firstID {
		t.Fatalf("restarted pusher identity %q, want %q", p2.ID(), firstID)
	}
	awaitSent := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := p2.Stats()
			if st.Sent == want && st.SpoolPending == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("never reached %d sent: %+v", want, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	awaitSent(n)
	if st := p2.Stats(); st.Replayed != n {
		t.Fatalf("replayed %d, want the %d spooled entries", st.Replayed, n)
	}
	mu.Lock()
	if len(seqs) != n {
		mu.Unlock()
		t.Fatalf("daemon saw %d deliveries, want %d", len(seqs), n)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			mu.Unlock()
			t.Fatalf("replay out of order or duplicated: %v", seqs)
		}
	}
	maxReplayed := seqs[n-1]
	mu.Unlock()

	// One more push after restart: its sequence must be above every
	// spooled one (the durable reservation at work).
	if !p2.Push(prof) {
		t.Fatal("post-restart push rejected")
	}
	awaitSent(n + 1)
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != n+1 {
		t.Fatalf("daemon saw %d deliveries after the extra push, want %d", len(seqs), n+1)
	}
	if seqs[n] <= maxReplayed {
		t.Fatalf("post-restart push reused sequence %d (max replayed %d)", seqs[n], maxReplayed)
	}
}

// TestPusherSpoolLedgerNeverOvercounts: while a restarted pusher replays
// its spool, Stats may lag a resolution but must never count one twice
// — Sent + Dropped + SpoolPending never exceeds the backlog plus
// Enqueued. Callers decide quiescence by that equality, and a replay
// counted sent before it left SpoolPending would let a profile still
// queued in memory pass for resolved (and die with the next kill).
func TestPusherSpoolLedgerNeverOvercounts(t *testing.T) {
	dir := t.TempDir()
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	p, err := NewPusher(PusherOptions{
		URL: down.URL, Queue: 64, Backoff: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: time.Hour,
		Logf: func(string, ...any) {}, SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := pushTestProfile(t)
	const n = 48
	for i := 0; i < n; i++ {
		if !p.Push(prof) {
			t.Fatalf("push %d rejected", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().SpoolPending < n {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never spooled: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	p.Abort()
	down.Close()

	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"profiles":1}`))
	}))
	defer up.Close()
	p2, err := NewPusher(PusherOptions{
		URL: up.URL, Backoff: time.Millisecond, Logf: func(string, ...any) {}, SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	base := p2.Stats().SpoolPending
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := p2.Stats()
		if st.Sent+st.Dropped+st.SpoolPending > base+st.Enqueued {
			t.Fatalf("ledger over-counts mid-replay: sent %d + dropped %d + pending %d > backlog %d + enqueued %d",
				st.Sent, st.Dropped, st.SpoolPending, base, st.Enqueued)
		}
		if st.SpoolPending == 0 && st.Sent == base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: %+v", st)
		}
	}
}

// TestPusherSpoolDrainsLegacyJSONEntry: a spool entry parked by an
// older pusher that encoded JSON still drains after an upgrade — sent
// byte for byte under the JSON content type (the daemon sniffs bodies
// and still reads JSON), delivered once, and acked exactly once.
func TestPusherSpoolDrainsLegacyJSONEntry(t *testing.T) {
	dir := t.TempDir()
	prof := pushTestProfile(t)
	var legacy bytes.Buffer
	if err := prof.WriteJSONCompact(&legacy); err != nil {
		t.Fatal(err)
	}
	s, err := openSpool(dir, 1<<20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.reserveSeq(1 + seqReserveBlock); err != nil {
		t.Fatal(err)
	}
	spoolAppend(t, s, 1, legacy.String())
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("legacy entry sent as %q, want application/json", ct)
		}
		if seq := r.Header.Get(PusherSeqHeader); seq != "1" {
			t.Errorf("legacy entry sent under seq %q, want its spooled seq 1", seq)
		}
		body, _ := io.ReadAll(r.Body)
		if !bytes.Equal(body, legacy.Bytes()) {
			t.Errorf("legacy entry rewritten in flight:\ngot  %s\nwant %s", body, legacy.Bytes())
		}
		var dec BatchDecoder
		if profs, err := dec.Decode(body); err != nil || len(profs) != 1 || profs[0].Redundancy != prof.Redundancy {
			t.Errorf("legacy entry does not decode to the spooled profile: %v", err)
		}
		w.Write([]byte(`{"profiles":1}`))
	}))
	defer srv.Close()

	p, err := NewPusher(PusherOptions{
		URL: srv.URL, Backoff: time.Millisecond, Logf: func(string, ...any) {}, SpoolDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().SpoolPending != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("legacy entry never drained: %+v", p.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Sent != 1 || st.Replayed != 1 || st.Dropped != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want exactly one replayed delivery", st)
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("daemon saw %d posts, want 1", got)
	}
	// The ack is durable: the next incarnation owes nothing.
	s, err = openSpool(dir, 1<<20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if got := s.pending(); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
}

// pushTestProfile builds one real profile for pusher tests.
func pushTestProfile(t *testing.T) *Profile {
	t.Helper()
	prog, err := Workload("listing3")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Run(prog, Options{Tool: DeadStores, Period: 97, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return prof
}
