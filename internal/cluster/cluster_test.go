package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/store"
	"repro/witch"
)

func threeNodes() []string {
	return []string{"http://10.0.0.1:9147", "http://10.0.0.2:9147", "http://10.0.0.3:9147"}
}

func mustRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestNewValidation: membership bugs are config bugs and must die at
// construction with an error naming the offender.
func TestNewValidation(t *testing.T) {
	peers := threeNodes()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"one peer", Config{Self: peers[0], Peers: peers[:1]}, "at least two"},
		{"self missing", Config{Self: "http://10.9.9.9:1", Peers: peers}, "not in the peer list"},
		{"duplicate", Config{Self: peers[0], Peers: []string{peers[0], peers[0]}}, "duplicate"},
		{"bad scheme", Config{Self: peers[0], Peers: []string{peers[0], "ftp://x:1"}}, "scheme"},
		{"path in peer", Config{Self: peers[0], Peers: []string{peers[0], "http://x:1/v1"}}, "path"},
		{"no host", Config{Self: peers[0], Peers: []string{peers[0], "http://"}}, "host"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%+v) = %v, want error containing %q", tc.cfg, err, tc.want)
			}
		})
	}

	// Trailing slashes normalize away: the ring must not split on
	// cosmetic URL differences.
	r := mustRouter(t, Config{Self: peers[0] + "/", Peers: []string{peers[0], peers[1] + "/"}})
	if r.Self() != peers[0] {
		t.Fatalf("self not normalized: %q", r.Self())
	}
	if got := r.Others(); len(got) != 1 || got[0] != peers[1] {
		t.Fatalf("others not normalized: %v", got)
	}
}

// TestOwnerAgreementAndSpread: every node computes the same owner for
// every key (the whole point of rendezvous hashing over a shared
// list), the assignment uses all nodes, and removing one peer
// reassigns only that peer's keys.
func TestOwnerAgreementAndSpread(t *testing.T) {
	peers := threeNodes()
	routers := make([]*Router, len(peers))
	for i := range peers {
		routers[i] = mustRouter(t, Config{Self: peers[i], Peers: peers})
	}
	const keys = 3000
	counts := map[string]int{}
	owner := make([]string, keys)
	for k := 0; k < keys; k++ {
		id := fmt.Sprintf("pusher-%06x", k*2654435761)
		owner[k] = routers[0].Owner(id)
		counts[owner[k]]++
		for _, r := range routers[1:] {
			if got := r.Owner(id); got != owner[k] {
				t.Fatalf("ring disagreement for %q: %s vs %s", id, got, owner[k])
			}
		}
	}
	for _, p := range peers {
		if counts[p] < keys/10 {
			t.Fatalf("lopsided ring: %s owns %d of %d", p, counts[p], keys)
		}
	}

	// Minimal-disruption property: with peer[2] gone, keys it did not
	// own keep their owner.
	small := mustRouter(t, Config{Self: peers[0], Peers: peers[:2]})
	for k := 0; k < keys; k++ {
		id := fmt.Sprintf("pusher-%06x", k*2654435761)
		if owner[k] != peers[2] && small.Owner(id) != owner[k] {
			t.Fatalf("removing %s moved key %q from %s", peers[2], id, owner[k])
		}
	}
}

// TestOwnerSpreadSequentialIDs: real pusher fleets use sequential
// identities ("host-1", "host-2", ...). Raw FNV-1a scores for keys
// differing only in trailing bytes are so close that one peer used to
// win every one of them — the fmix64 finalizer in rendezvousScore
// must keep near-identical keys spread across the ring.
func TestOwnerSpreadSequentialIDs(t *testing.T) {
	peers := threeNodes()
	r := mustRouter(t, Config{Self: peers[0], Peers: peers})
	counts := map[string]int{}
	const keys = 90
	for k := 0; k < keys; k++ {
		counts[r.Owner(fmt.Sprintf("host-%02d", k))]++
	}
	for _, p := range peers {
		if counts[p] < keys/10 {
			t.Fatalf("sequential IDs lopsided: %s owns %d of %d (%v)", p, counts[p], keys, counts)
		}
	}
}

// TestForwardRelaysVerdict: the owner's status, body, and duplicate
// marker come back verbatim — the pusher must not be able to tell it
// hit a non-owner.
func TestForwardRelaysVerdict(t *testing.T) {
	var gotID, gotSeq, gotHop string
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotID = r.Header.Get(witch.PusherIDHeader)
		gotSeq = r.Header.Get(witch.PusherSeqHeader)
		gotHop = r.Header.Get(ForwardedHeader)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Witch-Duplicate", "window")
		w.Write([]byte(`{"accepted":1}`))
	}))
	defer owner.Close()

	self := "http://10.0.0.1:9147"
	r := mustRouter(t, Config{Self: self, Peers: []string{self, owner.URL}})
	fr, err := r.Forward(context.Background(), owner.URL, "application/json", "pusher-1", 42, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if fr.Status != 200 || string(fr.Body) != `{"accepted":1}` || fr.Duplicate != "window" {
		t.Fatalf("verdict not relayed: %+v", fr)
	}
	if gotID != "pusher-1" || gotSeq != "42" || gotHop != self {
		t.Fatalf("forward headers wrong: id=%q seq=%q hop=%q", gotID, gotSeq, gotHop)
	}
	if s := r.StatsSnapshot(); s.Forwards != 1 || s.ForwardErrors != 0 {
		t.Fatalf("counters: %+v", s)
	}
}

// TestForwardBreaker: a dead owner costs one connection attempt per
// forward until the threshold, then the breaker answers instantly
// with a Retry-After hint; a success resets it.
func TestForwardBreaker(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	self := "http://10.0.0.1:9147"
	dead := "http://127.0.0.1:1" // nothing listens on port 1
	r := mustRouter(t, Config{
		Self: self, Peers: []string{self, dead},
		BreakerThreshold: 2, BreakerCooldown: time.Second, Now: clock,
		Client: &http.Client{Timeout: 200 * time.Millisecond},
	})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := r.Forward(ctx, dead, "application/json", "p", uint64(i), nil); err == nil {
			t.Fatal("forward to dead peer succeeded")
		}
	}
	ps := r.PeerStates()
	if len(ps) != 1 || !ps[0].Open || ps[0].Errors != 2 {
		t.Fatalf("breaker not open after threshold: %+v", ps)
	}
	_, err := r.Forward(ctx, dead, "application/json", "p", 9, nil)
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.RetryAfter <= 0 || pd.Err != nil {
		t.Fatalf("want fast-fail PeerDownError with RetryAfter, got %v", err)
	}
	// Cooldown elapses; the half-open probe happens (and fails again).
	now = now.Add(2 * time.Second)
	if _, err := r.Forward(ctx, dead, "application/json", "p", 10, nil); err == nil {
		t.Fatal("half-open probe succeeded against a dead peer")
	}
}

// TestForwardShedOpensBreaker: an owner shedding with Retry-After gets
// its verdict relayed AND the breaker opened for the advertised
// interval, so the next batch for that owner sheds locally.
func TestForwardShedOpensBreaker(t *testing.T) {
	hits := 0
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer owner.Close()
	now := time.Unix(1700000000, 0)
	self := "http://10.0.0.1:9147"
	r := mustRouter(t, Config{Self: self, Peers: []string{self, owner.URL}, Now: func() time.Time { return now }})

	fr, err := r.Forward(context.Background(), owner.URL, "application/json", "p", 1, nil)
	if err != nil || fr.Status != http.StatusServiceUnavailable || fr.RetryAfter != "3" {
		t.Fatalf("shed verdict not relayed: fr=%+v err=%v", fr, err)
	}
	if !fr.Shed() {
		t.Fatal("503 not classified as shed")
	}
	_, err = r.Forward(context.Background(), owner.URL, "application/json", "p", 2, nil)
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.RetryAfter != 3*time.Second {
		t.Fatalf("breaker did not adopt the advertised interval: %v", err)
	}
	if hits != 1 {
		t.Fatalf("second forward hit the shedding owner (%d hits)", hits)
	}
	if s := r.StatsSnapshot(); s.ForwardShed != 1 {
		t.Fatalf("shed not counted: %+v", s)
	}
}

// TestForwardUnreachedOwnerOpensBreaker: with RF > 1, one forward that
// reached no owner opens its breaker past the shed's Retry-After, so the
// pusher's retry reroutes; with RF = 1 there is no one to reroute to and
// the failure threshold still applies.
func TestForwardUnreachedOwnerOpensBreaker(t *testing.T) {
	self := "http://10.0.0.1:9147"
	dead := "http://127.0.0.1:1" // nothing listens on port 1
	for _, rf := range []int{1, 2} {
		now := time.Unix(1700000000, 0)
		r := mustRouter(t, Config{
			Self: self, Peers: []string{self, dead}, ReplicationFactor: rf,
			Now: func() time.Time { return now },
		})
		_, err := r.Forward(context.Background(), dead, "application/json", "p", 1, nil)
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Err == nil || pd.RetryAfter != DefaultRetryAfter {
			t.Fatalf("rf=%d: want a transport PeerDownError, got %v", rf, err)
		}
		ps := r.PeerStates()
		if rf == 1 {
			if ps[0].Open || ps[0].Trips != 0 {
				t.Fatalf("rf=1: breaker opened below its threshold: %+v", ps[0])
			}
			continue
		}
		if !ps[0].Open || ps[0].Trips != 1 {
			t.Fatalf("rf=%d: breaker after one unreached forward: %+v, want open, one trip", rf, ps[0])
		}
		now = now.Add(DefaultRetryAfter + DefaultRetryAfter/4)
		if _, err := r.Forward(context.Background(), dead, "application/json", "p", 1, nil); !errors.As(err, &pd) || pd.Err != nil {
			t.Fatalf("retry after the shed's Retry-After plus a quarter: want breaker open, got %v", err)
		}
	}
}

// TestForwardReachedOwnerKeepsThreshold: with RF > 1, a forward that
// may have reached the owner leaves its breaker closed below the
// failure threshold — a torn ack (the owner may have committed; only a
// retry there is safe), a ForwardTimeout on a live owner, and a request
// the caller cancelled.
func TestForwardReachedOwnerKeepsThreshold(t *testing.T) {
	release := make(chan struct{})
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get(witch.PusherIDHeader) {
		case "torn":
			w.Header().Set("Content-Length", "100")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"ingested"`))
		default:
			select {
			case <-r.Context().Done():
			case <-release:
			}
		}
	}))
	defer owner.Close()
	defer close(release)
	self := "http://10.0.0.1:9147"
	for _, c := range []struct {
		pusher       string
		fwdTO, ctxTO time.Duration
	}{
		{"torn", time.Minute, time.Minute},
		{"timeout", 50 * time.Millisecond, time.Minute},
		{"cancelled", time.Minute, 50 * time.Millisecond},
	} {
		r := mustRouter(t, Config{
			Self: self, Peers: []string{self, owner.URL}, ReplicationFactor: 2,
			ForwardTimeout: c.fwdTO,
		})
		ctx, cancel := context.WithTimeout(context.Background(), c.ctxTO)
		_, err := r.Forward(ctx, owner.URL, "application/json", c.pusher, 1, nil)
		cancel()
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Err == nil {
			t.Fatalf("%s: want a PeerDownError with a cause, got %v", c.pusher, err)
		}
		if ps := r.PeerStates(); ps[0].Open || ps[0].Trips != 0 || ps[0].Fails != 1 {
			t.Fatalf("%s: breaker after one failure: %+v, want closed with one failure", c.pusher, ps[0])
		}
	}
}

// TestScatterPartial: one live peer and one dead peer produce one
// Export and one error — a partial gather, never a failed one.
func TestScatterPartial(t *testing.T) {
	a := agg.New()
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		if got := r.URL.Query().Get("window"); got != "5m" {
			t.Errorf("window not passed through: %q", got)
		}
		var dreq DeltaRequest
		if err := gob.NewDecoder(r.Body).Decode(&dreq); err != nil {
			t.Errorf("decoding delta request: %v", err)
		}
		gob.NewEncoder(w).Encode(&ShardDelta{Delta: &store.ExportDelta{
			Full: true, Export: &store.Export{Parts: map[string]*agg.State{"": a.State()}},
		}})
	}))
	defer live.Close()
	self := "http://10.0.0.1:9147"
	dead := "http://127.0.0.1:1"
	r := mustRouter(t, Config{
		Self: self, Peers: []string{self, live.URL, dead},
		Client: &http.Client{Timeout: 200 * time.Millisecond},
	})
	res := r.ScatterDeltas(context.Background(), "5m")
	if len(res) != 2 {
		t.Fatalf("want 2 legs, got %d", len(res))
	}
	okLegs, errLegs := 0, 0
	for _, sr := range res {
		switch {
		case sr.Err == nil && sr.Export != nil:
			okLegs++
		case sr.Err != nil && sr.Peer == dead:
			errLegs++
		default:
			t.Fatalf("odd leg: %+v", sr)
		}
	}
	if okLegs != 1 || errLegs != 1 {
		t.Fatalf("legs: ok=%d err=%d", okLegs, errLegs)
	}
	if s := r.StatsSnapshot(); s.Scatters != 1 || s.ScatterPartials != 1 {
		t.Fatalf("scatter counters: %+v", s)
	}
}

// TestPreferenceAndReplicaSets: every node agrees on every pusher's
// full preference order, the replica set is its RF-prefix with the
// owner first, and RF is validated at construction.
func TestPreferenceAndReplicaSets(t *testing.T) {
	peers := threeNodes()
	routers := make([]*Router, len(peers))
	for i := range peers {
		routers[i] = mustRouter(t, Config{Self: peers[i], Peers: peers, ReplicationFactor: 2})
	}
	for k := 0; k < 500; k++ {
		id := fmt.Sprintf("pusher-%06x", k*2654435761)
		pref := routers[0].Preference(id)
		if len(pref) != len(peers) {
			t.Fatalf("preference list truncated: %v", pref)
		}
		if pref[0] != routers[0].Owner(id) {
			t.Fatalf("preference head %q is not the owner %q", pref[0], routers[0].Owner(id))
		}
		set := routers[0].ReplicaSet(id)
		if len(set) != 2 || set[0] != pref[0] || set[1] != pref[1] {
			t.Fatalf("replica set %v is not the preference prefix of %v", set, pref)
		}
		for _, r := range routers[1:] {
			got := r.Preference(id)
			for i := range pref {
				if got[i] != pref[i] {
					t.Fatalf("preference disagreement for %q: %v vs %v", id, got, pref)
				}
			}
		}
		if idx := routers[0].PreferenceIndex(id, pref[2]); idx != 2 {
			t.Fatalf("PreferenceIndex(%q) = %d, want 2", pref[2], idx)
		}
	}

	if _, err := New(Config{Self: peers[0], Peers: peers, ReplicationFactor: 4}); err == nil {
		t.Fatal("RF above peer count accepted")
	}
	if r := mustRouter(t, Config{Self: peers[0], Peers: peers}); r.RF() != 1 {
		t.Fatalf("default RF = %d, want 1", r.RF())
	}
}

// TestRingHash: same membership (any order, cosmetic slashes) hashes
// identically; different membership differs.
func TestRingHash(t *testing.T) {
	peers := threeNodes()
	a := mustRouter(t, Config{Self: peers[0], Peers: peers})
	b := mustRouter(t, Config{Self: peers[1], Peers: []string{peers[2] + "/", peers[0], peers[1]}})
	if a.RingHash() != b.RingHash() {
		t.Fatalf("same membership, different rings: %s vs %s", a.RingHash(), b.RingHash())
	}
	c := mustRouter(t, Config{Self: peers[0], Peers: peers[:2]})
	if c.RingHash() == a.RingHash() {
		t.Fatal("different membership, same ring")
	}
}

// TestReplicateClient: the replicate leg carries the key, the
// coordinator timestamp, and the ring hash; a 2xx closes the loop and
// a refusal surfaces as a breaker-visible error.
func TestReplicateClient(t *testing.T) {
	var gotID, gotSeq, gotTS, gotRing string
	refuse := false
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replicate" {
			http.NotFound(w, r)
			return
		}
		gotID = r.Header.Get(witch.PusherIDHeader)
		gotSeq = r.Header.Get(witch.PusherSeqHeader)
		gotTS = r.Header.Get(TimestampHeader)
		gotRing = r.Header.Get(RingHeader)
		if refuse {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-Witch-Duplicate", "window")
		w.Write([]byte(`{"replicated":1}`))
	}))
	defer peer.Close()
	self := "http://10.0.0.1:9147"
	r := mustRouter(t, Config{Self: self, Peers: []string{self, peer.URL}, ReplicationFactor: 2})
	ts := time.Unix(1700000000, 12345)
	rr, err := r.Replicate(context.Background(), peer.URL, "application/json", "pusher-1", 7, ts, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Duplicate {
		t.Fatalf("duplicate marker not relayed: %+v", rr)
	}
	if gotID != "pusher-1" || gotSeq != "7" || gotTS != fmt.Sprint(ts.UnixNano()) || gotRing != r.RingHash() {
		t.Fatalf("replicate headers wrong: id=%q seq=%q ts=%q ring=%q", gotID, gotSeq, gotTS, gotRing)
	}
	refuse = true
	if _, err := r.Replicate(context.Background(), peer.URL, "application/json", "pusher-1", 8, ts, []byte(`{}`)); err == nil {
		t.Fatal("refused replicate reported success")
	}
	if s := r.StatsSnapshot(); s.Replicates != 1 || s.ReplicateErrors != 1 {
		t.Fatalf("replicate counters: %+v", s)
	}
}
