package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// forwardIngest relays one keyed batch to a member of its replica set
// and that member's verdict back to the pusher, byte for byte. The ack
// chain is pusher → this node → coordinator: a 2xx here means the
// coordinator replicated and journaled before acking, so exactly-once
// survives the extra hop. Candidates are tried in preference order,
// but a later candidate is attempted ONLY when the earlier one's
// breaker was already open — no request went out, so rerouting cannot
// race a half-applied forward. A candidate that was actually attempted
// and failed (refused, timeout, torn response) sheds instead: it may
// have committed before the response tore, and only a retry of the
// same sequence against the same dedup windows is safe. When no
// verdict exists the batch is shed with 503 + Retry-After — the pusher
// spools it and retries. With RF > 1, a forward that reached no owner
// already left that owner's breaker open past the Retry-After
// (cluster.Router.Forward), so the retry reroutes.
func (s *Server) forwardIngest(ctx context.Context, w http.ResponseWriter, r *http.Request, id string, seq uint64, candidates []string) {
	buf, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer bufPool.Put(buf)
	var lastErr error
	for i, peer := range candidates {
		if peer == s.cl.Self() {
			continue
		}
		fr, err := s.cl.Forward(ctx, peer, r.Header.Get("Content-Type"), id, seq, buf.Bytes())
		if err != nil {
			lastErr = err
			var pd *cluster.PeerDownError
			if errors.As(err, &pd) && pd.Err == nil && i+1 < len(candidates) {
				// Breaker already open: provably nothing was sent, so the
				// next replica-set member can coordinate instead.
				s.cl.NoteReroute()
				continue
			}
			break
		}
		if fr.Ctype != "" {
			w.Header().Set("Content-Type", fr.Ctype)
		}
		if fr.RetryAfter != "" {
			w.Header().Set("Retry-After", fr.RetryAfter)
		}
		if fr.Duplicate != "" {
			w.Header().Set("X-Witch-Duplicate", fr.Duplicate)
		}
		w.WriteHeader(fr.Status)
		w.Write(fr.Body)
		return
	}
	retry := 2
	var pd *cluster.PeerDownError
	if errors.As(lastErr, &pd) && pd.RetryAfter > 0 {
		retry = int((pd.RetryAfter + time.Second - 1) / time.Second)
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no forwardable replica")
	}
	s.shedRequest(w, http.StatusServiceUnavailable, retry, "%v", lastErr)
}

// handleShard serves the two /v1/shard units. POST is the scatter
// unit, the delta protocol (see handleShardDelta). GET with ?pusher=
// is the anti-entropy repair unit: one pusher's full transferable
// partition (bucket-structured history plus its dedup window), a
// binary cluster.PartitionTransfer sent as agg.ContentType. Always
// local by construction, which is what keeps scatter legs from
// recursing.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		s.handleShardDelta(w, r)
		return
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
		return
	}
	if s.ringRejected(w, r) {
		return
	}
	id := r.URL.Query().Get("pusher")
	if id == "" {
		httpError(w, http.StatusBadRequest, "GET /v1/shard needs ?pusher=; window exports are POST (binary cluster.DeltaRequest body)")
		return
	}
	pt := cluster.PartitionTransfer{Image: s.st.PartitionImage(id)}
	pt.DedupMax, pt.DedupBits = s.ded.WindowOf(id)
	writePayload(w, pt.AppendBinary)
}

// handleShardDelta is the POST side of /v1/shard: diff this node's
// window export against the caller's version vector. The body is a
// binary cluster.DeltaRequest (magic first: a body in any other
// format, such as an older build's gob, is a 400); the reply a binary
// ShardDelta, sent as agg.ContentType — only the
// partitions whose epochs moved, plus tombstones, or a full export when
// the vector is unusable (first contact, another generation, another
// clock quantum) — alongside this node's pending-hint ledger, so the
// gathering side can prefer a hinter as a partition's holder and spot
// diverged replicas. The window rides the URL query (same parser as
// every read), the vector rides the body.
func (s *Server) handleShardDelta(w http.ResponseWriter, r *http.Request) {
	if s.ringRejected(w, r) {
		return
	}
	window, err := queryWindow(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading delta request: %v", err)
		return
	}
	dreq, err := cluster.DecodeDeltaRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding delta request: %v", err)
		return
	}
	t0 := s.cfg.Obs.Start()
	sd := cluster.ShardDelta{Delta: s.st.ExportDelta(window, dreq.Ver)}
	s.cfg.Obs.StageSince(obs.StageExport, t0)
	if s.repl != nil {
		sd.Hinted = s.repl.hints.hintedPushers()
	}
	writePayload(w, sd.AppendBinary)
}

// writePayload sends one binary peer payload, encoded into a pooled
// buffer.
func writePayload(w http.ResponseWriter, appendTo func([]byte) []byte) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	buf.Write(appendTo(buf.AvailableBuffer()))
	w.Header().Set("Content-Type", agg.ContentType)
	w.Write(buf.Bytes())
}

// handleClusterHealthz answers for the fleet: one row per node plus a
// merged rollup (Health flags OR, counters sum — agg.MergeHealth's
// rules). Unreachable peers appear both as error rows and in the
// incomplete list; the fleet status is degraded rather than the
// request failed. Each row carries the node's ring hash so membership
// skew is visible at a glance. Without a cluster it falls back to the
// local view.
func (s *Server) handleClusterHealthz(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		s.handleHealthz(w, r)
		return
	}
	localHealth, localProfiles := s.st.Health()
	rows := []cluster.PeerHealth{{
		Peer:     s.cl.Self(),
		Status:   map[bool]string{false: "ok", true: "degraded"}[localHealth.Degraded],
		State:    StateName(s.state.Load()),
		Ring:     s.cl.RingHash(),
		Profiles: localProfiles,
		Batches:  s.batches.Load(),
		Health:   localHealth,
	}}
	rows = append(rows, s.cl.PeerHealths(r.Context())...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Peer < rows[j].Peer })

	merged := localHealth
	profiles, batches := localProfiles, s.batches.Load()
	var incomplete []string
	for _, row := range rows {
		if row.Peer == s.cl.Self() {
			continue
		}
		if row.Err != "" {
			incomplete = append(incomplete, row.Peer)
			continue
		}
		merged = agg.MergeHealth(merged, row.Health)
		profiles += row.Profiles
		batches += row.Batches
	}
	status := "ok"
	if merged.Degraded || len(incomplete) > 0 {
		status = "degraded"
	}
	if len(incomplete) > 0 {
		w.Header().Set("X-Witch-Incomplete", strings.Join(incomplete, ","))
	}
	out := map[string]any{
		"status":     status,
		"self":       s.cl.Self(),
		"ring":       s.cl.RingHash(),
		"nodes":      rows,
		"profiles":   profiles,
		"batches":    batches,
		"health":     merged,
		"cluster":    s.cl.StatsSnapshot(),
		"incomplete": incomplete,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
