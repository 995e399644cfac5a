// Package daemon is the witchd aggregation service: the HTTP API, the
// lifecycle/overload guards, and the crash-safety layer (journal +
// snapshots), extracted from the witchd binary so benchmarks and the
// witchbench harness can boot a real daemon in-process. OpenNode
// assembles every whole node; cmd/witchd is a thin flag-parsing shell
// around it.
package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/witch"
)

// Lifecycle states. Ingest is accepted only while serving; /healthz
// reports the state so orchestrators can distinguish "still replaying
// the journal" from "being told to go away".
const (
	StateStarting int32 = iota
	StateRecovering
	StateServing
	StateDraining
)

// StateName renders a lifecycle state for logs and /healthz.
func StateName(s int32) string {
	switch s {
	case StateStarting:
		return "starting"
	case StateRecovering:
		return "recovering"
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	}
	return "unknown"
}

// Config sizes the server's protection limits.
type Config struct {
	// MaxBody bounds one ingest body (default 32 MiB).
	MaxBody int64
	// MaxInflight bounds concurrent ingest requests; excess load is shed
	// with 429 + Retry-After instead of queueing without bound
	// (default 64).
	MaxInflight int
	// MaxBacklog sheds ingest with 429 once the journal's unsynced-byte
	// backlog passes this watermark (only reachable with -fsync off;
	// default 64 MiB, 0 keeps the default, negative disables).
	MaxBacklog int64
	// Now is the ingest clock, injectable for tests (default time.Now).
	Now func() time.Time
	// DedupWindow is the per-pusher idempotency window in sequences
	// (default DefaultDedupWindow; rounded up to a multiple of 64).
	DedupWindow uint64
	// DedupMaxPushers bounds the dedup pusher table (default
	// DefaultDedupMaxPushers).
	DedupMaxPushers int
	// MaxTopN caps /v1/top's n parameter — the response-size bound for
	// the ranked-pairs query (default 1000).
	MaxTopN int
	// NoQueryCache disables the rendered-response cache on /v1/top and
	// /v1/profile (the store's own memoization is controlled separately
	// by store.Config.NoCache). Benchmarks use it as the oracle.
	NoQueryCache bool
	// Obs is the observability bundle: stage latency histograms, the
	// span ring behind /v1/trace, and the slow-request capture behind
	// /v1/slow. nil disables the whole layer at zero cost — every
	// handler's response bytes are identical either way (the layer is a
	// pure witness).
	Obs *obs.Observer
}

// Server wires the retention store, the persistence layer, and the
// lifecycle/overload guards to the HTTP API.
type Server struct {
	st   *store.Store
	cfg  Config
	pers *persistence    // nil = memory-only (no data dir)
	cl   *cluster.Router // nil = single node
	ded  *Dedup
	repl *replication // nil = single node; OpenNode starts it for every clustered node

	state atomic.Int32
	sem   chan struct{}

	// applyMu is the apply barrier, the same on memory-only and
	// persistent nodes. Every batch apply holds the read side from
	// journal append through merge and dedup mark (serveBatch);
	// snapshots and partition adoption take the write side, so each sees
	// a batch whole or not at all.
	applyMu sync.RWMutex
	// toJournal counts the decoded batches between the start of their
	// apply and the return of their journal append: the records the
	// journal's committer may still see join its current gang.
	toJournal atomic.Int64

	batches        atomic.Uint64 // ingest requests accepted locally
	rejected       atomic.Uint64 // ingest requests rejected (bad input)
	shed           atomic.Uint64 // ingest requests shed (overload/lifecycle/journal)
	forwardedIn    atomic.Uint64 // batches that arrived via a peer's routing hop
	replicatedIn   atomic.Uint64 // batches applied via a peer's replication leg
	ringMismatches atomic.Uint64 // inter-node requests rejected for ring skew
	queries        atomic.Uint64 // /v1/top + /v1/profile requests served

	// respCache memoizes rendered /v1/top and /v1/profile bodies keyed
	// by the view fingerprint (see viewcache.go). Only 200 responses.
	respMu     sync.Mutex
	respCache  map[string]*respEntry
	viewHits   atomic.Uint64 // responses served from the rendered cache
	viewMisses atomic.Uint64 // responses materialized and rendered
}

// newServer builds a server over a retention store, applying defaults
// for zero config fields. It starts in StateStarting; OpenNode runs
// recovery (if any) and then moves it to StateServing.
func newServer(st *store.Store, cfg Config) *Server {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 32 << 20
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxBacklog == 0 {
		cfg.MaxBacklog = 64 << 20
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxTopN <= 0 {
		cfg.MaxTopN = 1000
	}
	s := &Server{st: st, cfg: cfg, sem: make(chan struct{}, cfg.MaxInflight), respCache: make(map[string]*respEntry)}
	s.ded = NewDedup(cfg.DedupWindow, cfg.DedupMaxPushers)
	s.state.Store(StateStarting)
	return s
}

// DedupStats snapshots the idempotency layer's counters.
func (s *Server) DedupStats() DedupStats { return s.ded.Stats() }

// StoreStats snapshots the retention store's counters.
func (s *Server) StoreStats() store.Stats { return s.st.Stats() }

// setState moves the lifecycle forward.
func (s *Server) setState(st int32) { s.state.Store(st) }

// Cluster returns the attached router (nil for a single node).
func (s *Server) Cluster() *cluster.Router { return s.cl }

// Handler routes the API:
//
//	POST /v1/ingest    WriteJSON payloads (single, batched, or binary), routed to the pusher's replica set
//	POST /v1/replicate one keyed batch from a replica coordinator, at its timestamp, no re-fanout
//	                   (both apply through serveBatch: the same gates, journal-before-ack and dedup)
//	GET  /v1/top       ranked merged pairs (tool, window, program, n) — fleet-wide with a cluster
//	GET  /v1/profile   full merged profile in the WriteJSON schema — fleet-wide with a cluster
//	POST /v1/shard     this node's window export as a delta against the caller's version vector (binary agg encoding), the scatter unit
//	GET  /v1/shard     ?pusher= one partition plus its dedup window (binary agg encoding), the anti-entropy repair unit
//	GET  /v1/digest    per-pusher (maxSeq, checksum) anti-entropy digest
//	GET  /v1/healthz   fleet health: every peer's row plus the merged rollup
//	GET  /v1/trace/{id} cross-node span tree for one trace (?scope=local for this node's spans only)
//	GET  /v1/slow      top-K slowest recent requests with their span breakdowns
//	GET  /healthz      this node's lifecycle state, Health, retention + durability stats
//	GET  /metrics      Prometheus exposition (counters, gauges, stage/peer latency histograms)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/replicate", s.handleReplicate)
	mux.HandleFunc("/v1/top", s.handleTop)
	mux.HandleFunc("/v1/profile", s.handleProfile)
	mux.HandleFunc("/v1/shard", s.handleShard)
	mux.HandleFunc("/v1/digest", s.handleDigest)
	mux.HandleFunc("/v1/healthz", s.handleClusterHealthz)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	mux.HandleFunc("/v1/slow", s.handleSlow)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// ringRejected enforces the membership guard: an inter-node request
// carrying a RingHeader that does not match this node's ring hash is
// answered 409 before any state is touched. A typoed -peers list on
// one node would otherwise silently split ownership. Requests without
// the header (pushers, curl) always pass.
func (s *Server) ringRejected(w http.ResponseWriter, r *http.Request) bool {
	if s.cl == nil {
		return false
	}
	got := r.Header.Get(cluster.RingHeader)
	if got == "" || got == s.cl.RingHash() {
		return false
	}
	s.ringMismatches.Add(1)
	httpError(w, http.StatusConflict, "ring mismatch: request ring %s, local ring %s — peer lists differ, check -peers", got, s.cl.RingHash())
	return true
}

// httpError sends a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shed refuses an ingest for load or lifecycle reasons, with a
// Retry-After the pusher's circuit breaker honors.
func (s *Server) shedRequest(w http.ResponseWriter, status int, retryAfter int, format string, args ...any) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	httpError(w, status, format, args...)
}

// decoders pools BatchDecoders across ingest requests: the decoder owns
// the profile structs, pair slices, and intern table it hands out, so
// a request must finish with the decoded batch before putting its
// decoder back.
var decoders = sync.Pool{New: func() any { return new(witch.BatchDecoder) }}

// bufPool recycles ingest scratch buffers (request bodies, ack
// responses) so the hot path does not regrow a fresh buffer per batch.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// appendJSONString appends s as a JSON string literal. Plain printable
// ASCII (the overwhelmingly common case for tool names) is copied
// directly; anything else goes through encoding/json for correct
// escaping.
func appendJSONString(buf *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			b, err := json.Marshal(s)
			if err != nil { // a Go string always marshals
				b = []byte(`"?"`)
			}
			buf.Write(b)
			return
		}
	}
	buf.WriteByte('"')
	buf.WriteString(s)
	buf.WriteByte('"')
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Observability is witness-only: reqStart and the span feed
	// histograms and the span ring, never a verdict. With cfg.Obs nil
	// every call below is an inlineable nil-check no-op.
	o := s.cfg.Obs
	var reqStart time.Time
	finish := func(b *batch) {
		if o == nil {
			return
		}
		d := time.Since(reqStart)
		o.Stage(obs.StageIngest, d)
		b.sp.End()
		o.CaptureSlow("ingest", b.sp.Context(), b.id, b.seq, "", reqStart, d)
	}
	s.serveBatch(w, r, func() (b batch, ok bool) {
		// Idempotency key: pushers stamp every batch with their durable
		// identity and a never-reused sequence. The key is also the
		// routing key — in a cluster, rendezvous hashing on the pusher
		// identity gives every batch exactly one owner, whose dedup window
		// is the only one that ever judges this pusher's sequences.
		if b.id = r.Header.Get(witch.PusherIDHeader); b.id != "" {
			if v, err := strconv.ParseUint(r.Header.Get(witch.PusherSeqHeader), 10, 64); err == nil {
				b.seq, b.keyed = v, true
			}
		}
		if s.ringRejected(w, r) {
			return b, false
		}
		reqStart = o.Start()
		b.sp = o.StartSpan(r.Header.Get(obs.TraceHeader), "ingest")
		b.sp.Annotate(b.id, b.seq)
		b.ctx = r.Context()
		if b.sp.Active() {
			b.ctx = obs.ContextWithSpan(b.ctx, b.sp.Context())
		}

		forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
		if s.cl != nil && b.keyed {
			set := s.cl.ReplicaSet(b.id)
			selfIdx := -1
			for i, p := range set {
				if p == s.cl.Self() {
					selfIdx = i
				}
			}
			if !forwarded {
				if selfIdx < 0 {
					// Routing hop: relay the batch to a replica-set member and
					// that member's verdict back, before any local journal gate
					// — a node with a failed journal can still route to healthy
					// owners. A batch that already hopped is processed here
					// unconditionally (one hop only; skewed peer lists must not
					// build loops).
					s.forwardIngest(b.ctx, w, r, b.id, b.seq, set)
					finish(&b)
					return b, false
				}
				if selfIdx > 0 && s.cl.Available(set[0]) {
					// A follower keeps routing to the owner while it looks
					// reachable, so the owner's dedup window stays the one that
					// judges fresh sequences; only when the owner's breaker is
					// open does the follower coordinate (promoted follower).
					s.forwardIngest(b.ctx, w, r, b.id, b.seq, set[:1])
					finish(&b)
					return b, false
				}
			}
			// A replica-set member applies the batch authoritatively: it
			// replicates to the other members (or hints for the
			// unreachable ones) before its own journal commit.
			b.coordinate = selfIdx >= 0
		}
		if forwarded {
			s.forwardedIn.Add(1)
		}
		return b, true
	}, func(b *batch, profs []*witch.Profile, buf *bytes.Buffer, err error) {
		if err != nil {
			b.sp.Fail(err.Error())
			finish(b)
			return
		}
		// The merge copied everything it keeps, so the body is done with:
		// summarize the ack into its buffer. The ack JSON is written by
		// hand — a reflective Encode over a map costs more than the whole
		// binary decode for a small batch. Batches are almost always
		// single-tool, so the counts live in a short slice, not a map.
		type toolCount struct {
			tool string
			n    int
		}
		var counts []toolCount
	countTools:
		for _, p := range profs {
			for i := range counts {
				if counts[i].tool == p.Tool {
					counts[i].n++
					continue countTools
				}
			}
			counts = append(counts, toolCount{p.Tool, 1})
		}
		s.batches.Add(1)
		buf.Reset()
		var tmp [20]byte
		buf.WriteString(`{"accepted":`)
		buf.Write(strconv.AppendInt(tmp[:0], int64(len(profs)), 10))
		buf.WriteString(`,"by_tool":{`)
		for i, tc := range counts {
			if i > 0 {
				buf.WriteByte(',')
			}
			appendJSONString(buf, tc.tool)
			buf.WriteByte(':')
			buf.Write(strconv.AppendInt(tmp[:0], int64(tc.n), 10))
		}
		buf.WriteString("}}\n")
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.Bytes())
		finish(b)
	})
}

// batch is one POST to /v1/ingest or /v1/replicate on its way through
// serveBatch: its idempotency key and how this node applies it.
type batch struct {
	id    string
	seq   uint64
	keyed bool
	// at is the apply clock: the coordinator's ingest time on a replica
	// (both copies land in the same retention bucket), zero for
	// s.cfg.Now() at apply.
	at time.Time
	// coordinate fans the batch out to the other replica-set members
	// under ctx before the local commit.
	coordinate bool
	ctx        context.Context
	sp         obs.ActiveSpan // the request's span; journal_commit nests under it
}

// serveBatch takes one batch from admission to ack; it is the only
// apply path. In order: the lifecycle gate, the in-flight semaphore,
// admit, the journal gates, the bounded body read and pooled decode,
// then under the pusher's dedup window the coordinator fanout and
// journal-before-merge. The endpoints differ only in their hooks. admit
// runs once the request holds an in-flight slot, before any journal
// gate: it parses the key (and routes a hop) and returns false when it
// has answered the request itself. done sees the apply outcome; on
// success it writes the 200 ack (profs and buf are valid only inside
// done), on error serveBatch sheds the batch un-acked after it.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request,
	admit func() (batch, bool),
	done func(b *batch, profs []*witch.Profile, buf *bytes.Buffer, err error)) {
	switch s.state.Load() {
	case StateServing:
	case StateDraining:
		s.shedRequest(w, http.StatusServiceUnavailable, 5, "draining: witchd is shutting down")
		return
	default:
		s.shedRequest(w, http.StatusServiceUnavailable, 1, "recovering: not yet serving ingest")
		return
	}
	// Bounded concurrency: a pusher stampede gets 429s, not an
	// unbounded pile of goroutines decoding 32 MiB bodies.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.shedRequest(w, http.StatusTooManyRequests, 1, "overloaded: %d ingests in flight", cap(s.sem))
		return
	}
	b, ok := admit()
	if !ok {
		return
	}
	if p := s.pers; p != nil {
		if p.journal.Failed() {
			s.shedRequest(w, http.StatusServiceUnavailable, 10, "journal failed, restart required: ingest disabled to avoid un-durable acks")
			return
		}
		if s.cfg.MaxBacklog > 0 && p.journal.UnsyncedBytes() > s.cfg.MaxBacklog {
			s.shedRequest(w, http.StatusTooManyRequests, 1, "journal backlog over watermark, retry shortly")
			return
		}
	}

	buf, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer bufPool.Put(buf)
	body := buf.Bytes()
	// A pooled decoder parses the body — JSON or the binary wire format,
	// sniffed by magic rather than trusted from the Content-Type header
	// — reusing profile structs, pair slices, and interned strings
	// across requests, so it goes back only once done has finished with
	// the batch.
	o := s.cfg.Obs
	dec := decoders.Get().(*witch.BatchDecoder)
	defer decoders.Put(dec)
	dt0 := o.Start()
	profs, err := dec.Decode(body)
	o.StageSince(obs.StageDecode, dt0)
	if err != nil {
		s.rejected.Add(1)
		httpError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}

	// Durability before acknowledgement: a coordinator replicates to the
	// other replica-set members (durable hint if one is down), then the
	// batch is journaled (and fsynced, per policy) before it merges; any
	// failure sheds it un-acked so the client retries against a fleet
	// that can make it durable. All of it runs inside the dedup window
	// lock: a batch is never marked seen while a copy exists on fewer
	// than RF nodes (counting its hint record).
	apply := func(commit func()) error {
		now := b.at
		if now.IsZero() {
			now = s.cfg.Now()
		}
		s.toJournal.Add(1)
		if b.coordinate {
			if err := s.repl.fanout(b.ctx, b.id, b.seq, r.Header.Get("Content-Type"), body, now); err != nil {
				s.toJournal.Add(-1)
				return err
			}
		}
		// The journal_commit span covers the whole durable apply: append
		// + fsync/gang wait + merge + dedup mark. The pure journal-wait
		// histogram comes from the wal seam (Options.ObserveCommit).
		var jsp obs.ActiveSpan
		if s.pers != nil {
			jsp = o.StartChild(b.sp.Context(), "journal_commit")
		}
		// Per-tool routing happens inside the aggregate: every profile
		// carries its tool and merge keys are tool-scoped, so a batch may
		// mix tools freely. commit marks the key seen inside the barrier,
		// so a snapshot never observes the batch without its mark.
		s.applyMu.RLock()
		err := s.pers.append(now, b.id, b.seq, b.keyed, body)
		s.toJournal.Add(-1)
		if err == nil {
			mt0 := o.Start()
			for _, p := range profs {
				s.st.IngestKeyedAt(b.id, p, now)
			}
			o.StageSince(obs.StageMerge, mt0)
			commit()
		}
		s.applyMu.RUnlock()
		if err == nil {
			s.pers.applied()
		} else {
			jsp.Fail(err.Error())
		}
		jsp.End()
		return err
	}
	var dup, stale bool
	if b.keyed {
		// Process holds the pusher's window lock across apply, making
		// check→fanout→journal→merge→mark atomic per pusher. The dedup
		// histogram sees the window-lock acquire + bitmap probe: Process
		// total minus the time apply itself consumed.
		var applyDur time.Duration
		timedApply := apply
		if o != nil {
			timedApply = func(commit func()) error {
				at0 := time.Now()
				aerr := apply(commit)
				applyDur = time.Since(at0)
				return aerr
			}
		}
		pt0 := o.Start()
		dup, stale, err = s.ded.Process(b.id, b.seq, timedApply)
		if o != nil {
			o.Stage(obs.StageDedup, time.Since(pt0)-applyDur)
		}
	} else {
		err = apply(func() {})
	}
	if err != nil {
		done(&b, nil, nil, err)
		s.shedRequest(w, http.StatusServiceUnavailable, 10, "durable apply failed, batch not accepted: %v", err)
		return
	}
	if dup {
		// The ack body is identical to the original's — a pusher must not
		// care whether its ack is first-hand. The header is for operators
		// and tests.
		if stale {
			w.Header().Set("X-Witch-Duplicate", "stale")
		} else {
			w.Header().Set("X-Witch-Duplicate", "window")
		}
	}
	done(&b, profs, buf, nil)
}

// readBody reads one batch body into pooled scratch (the caller puts
// it back), bounded by MaxBody: 413 past the bound, 400 for any other
// read error. The journal frames its own copy and the decoder interns
// every string it keeps, so nothing outlives the request holding a
// reference into the buffer.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)); err != nil {
		bufPool.Put(buf)
		s.rejected.Add(1)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "ingest: %v", err)
		return nil, false
	}
	return buf, true
}

// queryWindow parses the window parameter: a Go duration, with an
// optional leading '-' tolerated ("-1h" and "1h" both mean the trailing
// hour); absent or "0" means everything, including evicted rollup.
func queryWindow(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("window")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad window %q: %v", raw, err)
	}
	if d < 0 {
		d = -d
	}
	return d, nil
}

// view resolves the tool/window/program parameters to a merged view.
// With a cluster attached the view is fleet-wide: every reachable
// peer's /v1/shard delta export is gathered beside the local one, anonymous
// partitions merge from every node, and each pusher partition merges
// from exactly one holder — so replicated data is never counted twice.
//
// Holder choice is hint-aware. Hinted handoff means a batch's RF
// copies are not always on RF nodes: while hints are undrained, both
// "copies" (journal record + hint record) live on the hinter. So for
// each pusher, a reachable exporter holding queued hints for that
// pusher outranks every non-hinter — its copy is provably a superset
// of the hint destination's — and ties break by preference index as
// usual. Without this, a healed-but-undrained destination with the
// better preference rank would be chosen and its stale partition
// reported as the complete answer.
//
// The answer degrades to a partial one only when loss or divergence
// is provable: (a) RF or more peers unreachable — a whole replica set
// may be dark; or (b) two reachable nodes both hold undrained hints
// for the same pusher — each has batches the other lacks, so no
// single holder is a superset. Fewer than RF down peers with a single
// (or no) hinter cannot hide keyed data, so the answer is reported
// complete. X-Witch-Incomplete names the implicated peers otherwise.
// Residual caveats, undetectable by construction: unkeyed node-local
// data on a down peer, and a coordinator that dies holding undrained
// hints (both copies of those batches were on its disk — no survivor
// can know they existed until it returns).
//
// scope=local bypasses the scatter (it is also how /v1/shard itself
// stays local, so legs never recurse). A local read, and every read of
// a single node, is a fleet read of one exporter: this node's export is
// the only one gathered and folded, in the same order.
//
// The work splits in two: gather collects the parameters, the local
// export, and every peer's delta-patched export — after the first
// query to a peer, only changed partitions travel — and derives the
// view fingerprint; materialize pays the O(partitions) merge. The
// split lets the rendered-response cache skip materialize entirely
// when the fingerprint says nothing anywhere changed.
//
// gathered is one query's resolved inputs.
type gathered struct {
	window     time.Duration
	tool       string
	program    string
	exporters  []string // fold order: s.cl.Peers() for a fleet read, this node alone for a local one
	exports    map[string]*store.Export
	hinters    map[string]map[string]bool
	incomplete []string
	fp         string // view fingerprint (see viewcache.go)
}

func (s *Server) gather(w http.ResponseWriter, r *http.Request) (g gathered, ok bool) {
	g.tool = r.URL.Query().Get("tool")
	if g.tool == "" {
		httpError(w, http.StatusBadRequest, "tool parameter is required (a profile tool string, e.g. DeadCraft)")
		return g, false
	}
	window, err := queryWindow(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return g, false
	}
	g.window = window
	g.program = r.URL.Query().Get("program")
	local := s.cl == nil || r.URL.Query().Get("scope") == "local"
	self := ""
	if s.cl != nil {
		self = s.cl.Self()
	}
	if local {
		// The fingerprint is read before the export: a mutation between
		// the two can only label fresher data with the older version.
		g.fp = "local;" + s.localFingerprint(window)
	}
	t0 := s.cfg.Obs.Start()
	g.exports = map[string]*store.Export{self: s.st.Export(window)}
	s.cfg.Obs.StageSince(obs.StageExport, t0)
	if local {
		g.exporters = []string{self}
		return g, true
	}
	g.exporters = s.cl.Peers()

	// hinters[id] = reachable exporters with queued hints for pusher id.
	g.hinters = make(map[string]map[string]bool)
	noteHints := func(peer string, hinted map[string][]string) {
		for id := range hinted {
			if g.hinters[id] == nil {
				g.hinters[id] = make(map[string]bool)
			}
			g.hinters[id][peer] = true
		}
	}
	noteHints(self, s.repl.hints.hintedPushers())
	var unreachable []string
	legs := s.cl.ScatterDeltas(r.Context(), r.URL.Query().Get("window"))
	for _, sr := range legs {
		if sr.Err != nil {
			unreachable = append(unreachable, sr.Peer)
			continue
		}
		g.exports[sr.Peer] = sr.Export
		noteHints(sr.Peer, sr.Hinted)
	}

	partial := make(map[string]bool)
	if len(unreachable) >= s.cl.RF() {
		// Fewer than RF down peers provably hold no keyed data that a
		// surviving replica does not also hold; at RF and beyond a
		// whole replica set may be dark, so name the holes.
		for _, peer := range unreachable {
			partial[peer] = true
		}
	}
	for _, hs := range g.hinters {
		// Two reachable nodes hinting for the same pusher diverged —
		// each holds acked batches the other lacks (both coordinated
		// while the other looked down), and any single holder choice
		// undercounts. Name both; drains converge them shortly.
		if len(hs) >= 2 {
			for peer := range hs {
				partial[peer] = true
			}
		}
	}
	if len(partial) > 0 {
		for peer := range partial {
			g.incomplete = append(g.incomplete, peer)
		}
		sort.Strings(g.incomplete)
		// A header, not a body field, so /v1/profile's body stays
		// byte-identical to what a complete fleet would produce when
		// the missing peers happen to hold no rows for this view.
		w.Header().Set("X-Witch-Incomplete", strings.Join(g.incomplete, ","))
	}
	g.fp = s.fleetFingerprint(window, legs)
	return g, true
}

// materialize pays the merge a gathered query describes: one goroutine
// folds, in foldOrder, from each chosen State only the rows the
// response is built from — the pairs of the query's tool (and
// program), and every meta of its tool (/v1/top lists all of the
// tool's programs). Each kept row gets the same float additions in the
// same order as in a fold of whole States, so every rendered byte is
// the same; the fold and the render scan just skip the rows no
// response reads.
func (s *Server) materialize(g gathered) *agg.View {
	defer s.cfg.Obs.StageSince(obs.StageFold, s.cfg.Obs.Start())
	order := s.foldOrder(g)
	scoped := make([]agg.State, len(order))
	for i, st := range order {
		scoped[i] = st.Scope(g.tool, g.program)
		scoped[i].Metas = st.Scope(g.tool, "").Metas
	}
	view := new(agg.View)
	view.Fold(scoped...)
	return view
}

// foldOrder lists the States a query folds, in fold order: partitions
// in id order, so the anonymous partition ("") comes first. It is
// node-local and summed, so every reachable exporter's copy is taken,
// in exporter order; each pusher partition is taken once, from one
// holder. A partition only one exporter holds (every partition of a
// local read) is taken from it; otherwise holder choice is the
// hint-aware selection documented on view.
func (s *Server) foldOrder(g gathered) []*agg.State {
	seen := make(map[string]bool)
	for _, peer := range g.exporters {
		if exp := g.exports[peer]; exp != nil {
			for id := range exp.Parts {
				seen[id] = true
			}
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []*agg.State
	for _, id := range ids {
		if id != "" {
			out = append(out, g.exports[s.holder(g, id)].Parts[id])
			continue
		}
		for _, peer := range g.exporters {
			if exp := g.exports[peer]; exp != nil && exp.Parts[""] != nil {
				out = append(out, exp.Parts[""])
			}
		}
	}
	return out
}

// holder picks the exporter whose copy of pusher id's partition a
// fold takes. One holder per pusher: a hinter for this pusher beats
// every non-hinter (its copy subsumes the undrained destination's),
// then lowest preference index. Replicas and repaired copies of the
// same partition thus collapse to a single contribution instead of
// double-counting. The ring is consulted only when two or more
// exporters hold the partition, which a local read never has.
func (s *Server) holder(g gathered, id string) string {
	only, held := "", 0
	for _, peer := range g.exporters {
		if exp := g.exports[peer]; exp != nil && exp.Parts[id] != nil {
			only, held = peer, held+1
		}
	}
	if held == 1 {
		return only
	}
	penalty := len(g.exporters) + 1
	best, bestIdx := "", 2*penalty+1
	for _, peer := range g.exporters {
		if exp := g.exports[peer]; exp == nil || exp.Parts[id] == nil {
			continue
		}
		idx := s.cl.PreferenceIndex(id, peer)
		if len(g.hinters[id]) > 0 && !g.hinters[id][peer] {
			idx += penalty
		}
		if idx < bestIdx {
			best, bestIdx = peer, idx
		}
	}
	return best
}

// errNoProfiles is topBody's and profileBody's answer for a view with
// no profile of the queried tool and program: a 404.
var errNoProfiles = errors.New("no profiles in window")

// topBody renders a /v1/top body from a materialized view. SnapshotTop
// ranks only the n pairs the response carries — heap selection instead
// of sorting the whole population.
func topBody(view *agg.View, g gathered, n int) ([]byte, error) {
	prof := view.SnapshotTop(g.tool, g.program, n)
	if prof == nil {
		return nil, errNoProfiles
	}
	out := map[string]any{
		"tool":       g.tool,
		"program":    prof.Program,
		"programs":   view.Programs(g.tool),
		"redundancy": prof.Redundancy,
		"waste":      prof.Waste,
		"use":        prof.Use,
		"pairs":      prof.TopPairs(n),
	}
	if len(g.incomplete) > 0 {
		out["incomplete"] = g.incomplete
	}
	body, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return append(body, '\n'), nil
}

// profileBody renders a /v1/profile body from a materialized view.
// Compact on the wire: indented output is for files and humans; a
// fleet dashboard polling /v1/profile pays ~2x bytes for indentation.
func profileBody(view *agg.View, g gathered) ([]byte, error) {
	prof := view.SnapshotTop(g.tool, g.program, 0)
	if prof == nil {
		return nil, errNoProfiles
	}
	var buf bytes.Buffer
	prof.WriteJSONCompact(&buf)
	return buf.Bytes(), nil
}

// renderEntry wraps a rendered body for the response cache, answering
// the error itself (and caching nothing) when rendering failed.
func renderEntry(w http.ResponseWriter, g gathered, body []byte, err error) *respEntry {
	switch {
	case errors.Is(err, errNoProfiles):
		httpError(w, http.StatusNotFound, "no profiles for tool %q (program %q) in window", g.tool, g.program)
		return nil
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return nil
	}
	return &respEntry{ctype: "application/json", body: body}
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Validate the cheap parameter before paying for a fleet scatter.
	// Anything non-numeric, zero, negative, or past the response-size
	// cap is a caller bug worth a loud 400, not a silent default.
	n := 20
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 || v > s.cfg.MaxTopN {
			httpError(w, http.StatusBadRequest, "bad n %q: need an integer in [1, %d]", raw, s.cfg.MaxTopN)
			return
		}
		n = v
	}
	s.serveQuery(w, r, "top", strconv.Itoa(n), func(view *agg.View, g gathered) ([]byte, error) {
		return topBody(view, g, n)
	})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.serveQuery(w, r, "profile", "", profileBody)
}

// serveQuery answers a validated /v1/top or /v1/profile request:
// gather, then the rendered cache under respKey(endpoint, g, extra),
// materializing and rendering on a miss. The query span, stage and
// slow capture are labeled with endpoint.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, endpoint, extra string,
	render func(view *agg.View, g gathered) ([]byte, error)) {
	o := s.cfg.Obs
	qStart := o.Start()
	sp := o.StartSpan(r.Header.Get(obs.TraceHeader), "query")
	if sp.Active() {
		r = r.WithContext(obs.ContextWithSpan(r.Context(), sp.Context()))
	}
	g, ok := s.gather(w, r)
	if !ok {
		sp.End()
		return
	}
	s.queries.Add(1)
	defer func() {
		if o == nil {
			return
		}
		d := time.Since(qStart)
		o.Stage(obs.StageQuery, d)
		sp.End()
		o.CaptureSlow("query", sp.Context(), "", 0, endpoint+" "+g.tool, qStart, d)
	}()
	s.serveCached(w, respKey(endpoint, g, extra), func() *respEntry {
		view := s.materialize(g)
		defer o.StageSince(obs.StageRender, o.Start())
		body, err := render(view, g)
		return renderEntry(w, g, body, err)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	health, profiles := s.st.Health()
	status := "ok"
	if health.Degraded {
		status = "degraded"
	}
	out := map[string]any{
		"status":           status,
		"state":            StateName(s.state.Load()),
		"profiles":         profiles,
		"batches":          s.batches.Load(),
		"rejected_batches": s.rejected.Load(),
		"shed_batches":     s.shed.Load(),
		"forwarded_in":     s.forwardedIn.Load(),
		"replicated_in":    s.replicatedIn.Load(),
		"ring_mismatches":  s.ringMismatches.Load(),
		"tools":            s.st.Tools(),
		"health":           health,
		"store":            s.st.Stats(),
		"dedup":            s.ded.Stats(),
		"build":            buildInfoBlock(),
	}
	if o := s.cfg.Obs; o != nil {
		held, recorded, dropped := o.TracerStats()
		kept, captured := o.SlowStats()
		out["obs"] = map[string]any{
			"tracing":        o.TracingEnabled(),
			"spans_held":     held,
			"spans_recorded": recorded,
			"spans_evicted":  dropped,
			"slow_kept":      kept,
			"slow_captured":  captured,
		}
	}
	if s.cl != nil {
		out["cluster"] = s.cl.StatsSnapshot()
		out["ring"] = s.cl.RingHash()
	}
	if s.repl != nil {
		out["replication"] = s.repl.stats()
	}
	if p := s.pers; p != nil {
		out["durability"] = map[string]any{
			"journal_lsn":       p.journal.LastLSN(),
			"journal_failed":    p.journal.Failed(),
			"journal_errors":    p.journalErrors.Load(),
			"unsynced_bytes":    p.journal.UnsyncedBytes(),
			"snapshots_taken":   p.snapshots.Load(),
			"snapshot_errors":   p.snapErrors.Load(),
			"last_snapshot_lsn": p.lastSnapLSN.Load(),
			"recovery":          p.recovery,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
