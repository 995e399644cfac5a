package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Stage names one instrumented point of the witchd pipeline. Fixed at
// compile time so stage histograms live in a flat array — recording is
// an index, not a map lookup.
type Stage uint8

const (
	// StageIngest is the whole of one accepted ingest request.
	StageIngest Stage = iota
	// StageDecode is the batch decode (JSON or binary wire sniff).
	StageDecode
	// StageDedup is the idempotency check: window-lock acquire + bitmap
	// probe, before the durable apply runs.
	StageDedup
	// StageJournal is the journal durability wait: frame write + fsync,
	// including the group-commit gang wait (recorded at the wal seam).
	StageJournal
	// StageMerge is the aggregate merge of a decoded batch.
	StageMerge
	// StageReplicate is the client-side replicate RTT to one replica.
	StageReplicate
	// StageHintAppend is one durable hint append for an unreachable
	// replica.
	StageHintAppend
	// StageScatter is one client-side scatter leg (shard fetch).
	StageScatter
	// StageQuery is the whole of one /v1/top or /v1/profile request.
	StageQuery
	// StageFold is the query-side merge (materialize) of the gathered
	// exports into the answering view: holder selection, then each
	// chosen partition's rows for the query's tool (and program).
	StageFold
	// StageExport is the local store export a query reads: the
	// coordinator's own export in gather, and a peer's delta export
	// serving one /v1/shard leg.
	StageExport
	// StageRender is the snapshot and encode of a materialized view
	// into a /v1/top or /v1/profile body.
	StageRender
	// StageScatterDecode is one scatter leg's gob decode, order check and
	// patch of the peer's baseline: the part of a StageScatter leg
	// spent after the response body has arrived.
	StageScatterDecode
	// StageScatterWait is one scatter leg's wait for its (peer, window)
	// baseline lock, which concurrent reads of the same window share;
	// it ends before the StageScatter leg's clock starts.
	StageScatterWait
	// StageCacheHit / StageCacheMiss split query serving time by
	// rendered-response-cache outcome.
	StageCacheHit
	StageCacheMiss

	numStages
)

var stageNames = [numStages]string{
	"ingest",
	"ingest_decode",
	"dedup",
	"journal_commit",
	"agg_merge",
	"replicate",
	"hint_append",
	"scatter_leg",
	"query",
	"query_fold",
	"query_export",
	"query_render",
	"scatter_decode",
	"scatter_wait",
	"query_cache_hit",
	"query_cache_miss",
}

// StageName renders a stage for spans and metric labels.
func StageName(s Stage) string { return stageNames[s] }

// Options configures an Observer.
type Options struct {
	// Node names this process in spans (witchd uses its advertised URL).
	Node string
	// TraceRing bounds the completed-span ring; 0 disables tracing
	// (histograms stay on).
	TraceRing int
	// SlowCapture keeps the top-K slowest recent requests; 0 disables.
	SlowCapture int
	// SlowThreshold emits one structured warn line per request at or
	// over this duration; 0 disables.
	SlowThreshold time.Duration
	// Log receives threshold warnings (default: the process default
	// logger).
	Log *Logger
}

// Observer is the per-process observability bundle: the stage
// histograms, per-peer RTT histograms, the span ring, and the slow
// log. Every method is safe on a nil receiver and does nothing there —
// embedders compile the calls in unconditionally and pass nil to
// disable the whole layer at zero cost (no lock, no allocation, no
// clock read).
type Observer struct {
	node          string
	stages        [numStages]Histogram
	tracer        *Tracer
	slow          *slowLog
	slowThreshold time.Duration
	log           *Logger

	peerMu sync.RWMutex
	peers  map[string]*Histogram // key: op + "\x00" + peer
}

// New builds an Observer.
func New(o Options) *Observer {
	log := o.Log
	if log == nil {
		log = Default()
	}
	return &Observer{
		node:          o.Node,
		tracer:        NewTracer(o.Node, o.TraceRing),
		slow:          newSlowLog(o.SlowCapture),
		slowThreshold: o.SlowThreshold,
		log:           log,
		peers:         make(map[string]*Histogram),
	}
}

// Node reports the observer's node name ("" on nil).
func (o *Observer) Node() string {
	if o == nil {
		return ""
	}
	return o.node
}

// Start returns the current time when observing is on, the zero time
// otherwise — the paired argument for StageSince, so a disabled
// observer skips even the clock read.
func (o *Observer) Start() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// StageSince records time since t0 into the stage histogram.
func (o *Observer) StageSince(st Stage, t0 time.Time) {
	if o == nil {
		return
	}
	o.stages[st].Observe(time.Since(t0))
}

// Stage records one sample into the stage histogram.
func (o *Observer) Stage(st Stage, d time.Duration) {
	if o == nil {
		return
	}
	o.stages[st].Observe(d)
}

// StageSnapshot snapshots one stage histogram (zero snapshot on nil).
func (o *Observer) StageSnapshot(st Stage) HistogramSnapshot {
	if o == nil {
		return HistogramSnapshot{}
	}
	return o.stages[st].Snapshot()
}

// Peer records one peer-call RTT into the per-(op, peer) histogram and
// the matching aggregate stage (replicate → StageReplicate, scatter →
// StageScatter; other ops keep only their per-peer series).
func (o *Observer) Peer(op, peer string, d time.Duration) {
	if o == nil {
		return
	}
	switch op {
	case "replicate":
		o.stages[StageReplicate].Observe(d)
	case "scatter":
		o.stages[StageScatter].Observe(d)
	}
	key := op + "\x00" + peer
	o.peerMu.RLock()
	h := o.peers[key]
	o.peerMu.RUnlock()
	if h == nil {
		o.peerMu.Lock()
		if h = o.peers[key]; h == nil {
			h = &Histogram{}
			o.peers[key] = h
		}
		o.peerMu.Unlock()
	}
	h.Observe(d)
}

// PeerSince records time since t0 as a peer-call RTT (no-op, clock
// unread, on nil).
func (o *Observer) PeerSince(op, peer string, t0 time.Time) {
	if o == nil {
		return
	}
	o.Peer(op, peer, time.Since(t0))
}

// TracingEnabled reports whether spans are being recorded.
func (o *Observer) TracingEnabled() bool { return o != nil && o.tracer != nil }

// CollectTrace renders this node's retained spans for one trace ID.
func (o *Observer) CollectTrace(trace uint64) []Span {
	if o == nil {
		return nil
	}
	return o.tracer.Collect(trace)
}

// TracerStats reports span-ring counters (all zero when disabled).
func (o *Observer) TracerStats() (held int, recorded, dropped uint64) {
	if o == nil {
		return 0, 0, 0
	}
	recorded, dropped = o.tracer.Stats()
	return o.tracer.Len(), recorded, dropped
}

// SlowStats reports slow-capture counters.
func (o *Observer) SlowStats() (kept int, captured uint64) {
	if o == nil {
		return 0, 0
	}
	return o.slow.stats()
}

// Log returns the observer's logger (the process default on nil — a
// disabled observer must not silence operational warnings).
func (o *Observer) Logger() *Logger {
	if o == nil || o.log == nil {
		return Default()
	}
	return o.log
}

// ActiveSpan is one in-flight span. The zero value (from a nil or
// tracing-disabled observer) is inert: every method no-ops, Context
// returns the invalid context. It is a value type — starting a span
// allocates nothing.
type ActiveSpan struct {
	t      *Tracer
	sc     SpanContext
	parent uint64
	stage  string
	start  time.Time
	done   bool

	pusher, peer, err string
	seq               uint64
}

// StartSpan opens a span for an incoming request. header is the raw
// X-Witch-Trace value: when it parses, the new span joins that trace
// as a child of the sender's span; when empty or malformed and this
// observer traces, a fresh trace is minted here (the entry node).
func (o *Observer) StartSpan(header, stage string) ActiveSpan {
	if o == nil || o.tracer == nil {
		return ActiveSpan{}
	}
	var parent uint64
	sc, ok := ParseTrace(header)
	if ok {
		parent = sc.Span
	} else {
		sc.Trace = newID()
	}
	sc.Span = newID()
	return ActiveSpan{t: o.tracer, sc: sc, parent: parent, stage: stage, start: time.Now()}
}

// StartChild opens a span under an existing context (the client side
// of forward/replicate/scatter legs). An invalid parent context yields
// the inert span.
func (o *Observer) StartChild(parent SpanContext, stage string) ActiveSpan {
	if o == nil || o.tracer == nil || !parent.Valid() {
		return ActiveSpan{}
	}
	return ActiveSpan{
		t:      o.tracer,
		sc:     SpanContext{Trace: parent.Trace, Span: newID()},
		parent: parent.Span,
		stage:  stage,
		start:  time.Now(),
	}
}

// Active reports whether the span records anything.
func (sp *ActiveSpan) Active() bool { return sp.t != nil }

// Context returns the span's own context — what child spans, outgoing
// trace headers, and post-End slow captures derive from. Still valid
// after End.
func (sp *ActiveSpan) Context() SpanContext { return sp.sc }

// Header renders the outgoing trace header value ("" when inert).
func (sp *ActiveSpan) Header() string {
	if sp.t == nil {
		return ""
	}
	return sp.sc.String()
}

// Annotate attaches the idempotency key.
func (sp *ActiveSpan) Annotate(pusher string, seq uint64) {
	if sp.t == nil {
		return
	}
	sp.pusher, sp.seq = pusher, seq
}

// SetPeer names the remote end of a client-side span.
func (sp *ActiveSpan) SetPeer(peer string) {
	if sp.t == nil {
		return
	}
	sp.peer = peer
}

// Fail records the span's error outcome.
func (sp *ActiveSpan) Fail(err string) {
	if sp.t == nil {
		return
	}
	sp.err = err
}

// End completes the span into the ring and returns its duration.
// Idempotent: a second End records nothing.
func (sp *ActiveSpan) End() time.Duration {
	if sp.t == nil || sp.done {
		return 0
	}
	sp.done = true
	d := time.Since(sp.start)
	sp.t.record(span{
		trace:  sp.sc.Trace,
		id:     sp.sc.Span,
		parent: sp.parent,
		start:  sp.start.UnixNano(),
		dur:    int64(d),
		seq:    sp.seq,
		stage:  sp.stage,
		pusher: sp.pusher,
		peer:   sp.peer,
		err:    sp.err,
	})
	return d
}

// Context propagation: the daemon parks the request's span context in
// the context.Context it already threads into the cluster router, and
// the router stamps outgoing trace headers from it. A context without
// a span propagates nothing.
type ctxKey struct{}

// ContextWithSpan attaches a span context for downstream peer calls.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanFromContext recovers the attached span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// MetricFamily is one exposition family the daemon's /metrics merges
// into its output: name, metadata, and pre-rendered sample lines in
// the order they must appear.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram
	Samples []string
}

// MetricFamilies renders the observer's histograms and counters as
// exposition families. Stage series are emitted under one family with
// a stage label; peer RTTs under another with op+peer labels. Series
// order is sorted and therefore scrape-stable.
func (o *Observer) MetricFamilies() []MetricFamily {
	if o == nil {
		return nil
	}
	stage := MetricFamily{
		Name: "witchd_stage_duration_seconds",
		Help: "Latency by pipeline stage (log-linear buckets, 2 per octave, ~1us..69s).",
		Type: "histogram",
	}
	for st := Stage(0); st < numStages; st++ {
		snap := o.stages[st].Snapshot()
		stage.Samples = snap.AppendExposition(stage.Samples,
			"witchd_stage_duration_seconds", `stage="`+stageNames[st]+`"`)
	}
	fams := []MetricFamily{stage}

	o.peerMu.RLock()
	keys := make([]string, 0, len(o.peers))
	for k := range o.peers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snaps := make([]HistogramSnapshot, len(keys))
	for i, k := range keys {
		snaps[i] = o.peers[k].Snapshot()
	}
	o.peerMu.RUnlock()
	if len(keys) > 0 {
		peer := MetricFamily{
			Name: "witchd_peer_rtt_seconds",
			Help: "Peer call round-trip latency by operation and peer.",
			Type: "histogram",
		}
		for i, k := range keys {
			op, pr, _ := cut(k, '\x00')
			peer.Samples = snaps[i].AppendExposition(peer.Samples,
				"witchd_peer_rtt_seconds", `op="`+op+`",peer="`+pr+`"`)
		}
		fams = append(fams, peer)
	}

	held, recorded, dropped := o.TracerStats()
	_, captured := o.SlowStats()
	fams = append(fams,
		MetricFamily{
			Name: "witchd_trace_spans_recorded_total",
			Help: "Completed spans recorded into the span ring.",
			Type: "counter",
			Samples: []string{
				"witchd_trace_spans_recorded_total " + strconv.FormatUint(recorded, 10),
			},
		},
		MetricFamily{
			Name: "witchd_trace_spans_evicted_total",
			Help: "Spans overwritten by ring wrap before any query read them.",
			Type: "counter",
			Samples: []string{
				"witchd_trace_spans_evicted_total " + strconv.FormatUint(dropped, 10),
			},
		},
		MetricFamily{
			Name:    "witchd_trace_spans_held",
			Help:    "Spans currently retained in the ring.",
			Type:    "gauge",
			Samples: []string{"witchd_trace_spans_held " + strconv.Itoa(held)},
		},
		MetricFamily{
			Name: "witchd_slow_captured_total",
			Help: "Requests admitted into the slow-request capture ring.",
			Type: "counter",
			Samples: []string{
				"witchd_slow_captured_total " + strconv.FormatUint(captured, 10),
			},
		},
	)
	return fams
}

func cut(s string, sep byte) (before, after string, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == sep {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}
