package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/witch"
)

// maxAckBody bounds how much of the owner's response a forwarder will
// buffer for relay. Ingest acks are a few hundred bytes; a megabyte
// means something upstream is broken and truncating is the safe move.
const maxAckBody = 1 << 20

// ForwardResult is the owner's verdict on a forwarded batch, carried
// back verbatim so the entry node can relay an ack that is
// byte-identical to what the owner would have sent directly. In
// particular Duplicate preserves the owner's re-ack marker: the
// pusher cannot tell (and must not care) which node it talked to.
type ForwardResult struct {
	Status     int
	Body       []byte
	Ctype      string
	RetryAfter string // owner's Retry-After header, verbatim
	Duplicate  string // owner's X-Witch-Duplicate header, verbatim
}

// Shed reports whether the owner refused the batch with a backpressure
// status (relayed to the pusher as its own shed).
func (fr *ForwardResult) Shed() bool {
	return fr.Status == http.StatusTooManyRequests || fr.Status == http.StatusServiceUnavailable
}

// Forward sends one keyed batch to its owner and returns the owner's
// verdict. The entry node has NOT journaled the batch; the ack chain
// is pusher → entry → owner, and only the owner's journal-before-ack
// commit turns into a 2xx. A nil error means the owner produced a
// verdict (success, duplicate re-ack, validation error, or shed) that
// the caller must relay as-is. A *PeerDownError means no verdict
// exists: the caller sheds with Retry-After and the pusher keeps the
// batch.
//
// With RF > 1, a forward that reached no owner (the request failed in
// transport while the caller still waited for it) opens the owner's
// breaker at once, for longer than the Retry-After the caller sheds
// with: the pusher's retry then finds the breaker open and goes to the
// next replica-set member instead of dialling the dead owner again. A
// torn ack, a ForwardTimeout and a cancelled request leave the breaker
// to its failure threshold.
func (r *Router) Forward(ctx context.Context, owner, ctype, pusherID string, seq uint64, body []byte) (*ForwardResult, error) {
	unreached := time.Duration(0)
	if r.rf > 1 {
		unreached = DefaultRetryAfter * 3 / 2
	}
	rep, err := r.postLeg(ctx, owner, "/v1/ingest", "forward", ctype, pusherID, seq, body, ForwardedHeader, r.self, unreached)
	if err == nil && rep.torn != nil {
		// The owner may have committed before the response tore, so this
		// is NOT a safe moment to re-route; shed and let the pusher retry
		// the same sequence number at the same owner, where dedup re-acks.
		r.breakerFailure(owner, 0, false)
		err = &PeerDownError{Peer: owner, RetryAfter: DefaultRetryAfter,
			Err: fmt.Errorf("reading owner ack: %w", rep.torn)}
	}
	if err != nil {
		r.forwardErrors.Add(1)
		return nil, err
	}
	fr := &ForwardResult{
		Status:     rep.status,
		Body:       rep.body,
		Ctype:      rep.header.Get("Content-Type"),
		RetryAfter: rep.header.Get("Retry-After"),
		Duplicate:  rep.header.Get("X-Witch-Duplicate"),
	}
	if fr.Shed() {
		// The owner is up but shedding: open the breaker for exactly the
		// interval it advertised, so the next batch for that owner sheds
		// here instantly instead of burning a doomed hop.
		ra := r.parseRetryAfter(rep.header)
		if ra <= 0 {
			ra = DefaultRetryAfter
		}
		r.breakerFailure(owner, ra, true)
		r.forwardShed.Add(1)
	} else {
		r.breakerSuccess(owner)
		r.forwards.Add(1)
	}
	return fr, nil
}

// legReply is a peer's answer to one batch leg.
type legReply struct {
	status int
	header http.Header
	body   []byte // bounded by maxAckBody
	torn   error  // the body tore after the status line
}

// postLeg is the peer POST that forwards and replication legs share:
// the breaker gate, ForwardTimeout, the key and ring headers plus the
// leg's own header (hdr: val), the client span (failed on a non-2xx status or a torn
// body), the peer RTT, the breaker failure of a transport error, and
// the bounded body read. A transport error while ctx is still live
// opens the breaker for unreached at once (0 leaves it to the failure
// threshold). A *PeerDownError means no response arrived; otherwise
// the caller maps the reply to its verdict and settles the breaker.
// Counters are the caller's.
func (r *Router) postLeg(ctx context.Context, peer, path, op, ctype, pusherID string, seq uint64, body []byte, hdr, val string, unreached time.Duration) (*legReply, error) {
	if wait := r.breakerGate(peer); wait > 0 {
		return nil, &PeerDownError{Peer: peer, RetryAfter: wait}
	}
	ctx, cancel := context.WithTimeout(ctx, r.forwardTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, &PeerDownError{Peer: peer, RetryAfter: DefaultRetryAfter, Err: err}
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set(witch.PusherIDHeader, pusherID)
	req.Header.Set(witch.PusherSeqHeader, strconv.FormatUint(seq, 10))
	req.Header.Set(RingHeader, r.ringHash)
	req.Header.Set(hdr, val)
	sp := r.traceSpan(ctx, req, op+"_leg", peer)
	sp.Annotate(pusherID, seq)
	t0 := r.obs.Start()
	resp, err := r.client.Do(req)
	if err != nil {
		sp.Fail(err.Error())
		sp.End()
		if ctx.Err() != nil {
			unreached = 0
		}
		r.breakerFailure(peer, unreached, false)
		return nil, &PeerDownError{Peer: peer, RetryAfter: DefaultRetryAfter, Err: err}
	}
	rep := &legReply{status: resp.StatusCode, header: resp.Header}
	rep.body, rep.torn = io.ReadAll(io.LimitReader(resp.Body, maxAckBody))
	resp.Body.Close()
	r.obs.PeerSince(op, peer, t0)
	switch {
	case rep.torn != nil:
		sp.Fail(rep.torn.Error())
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		sp.Fail(resp.Status)
	}
	sp.End()
	return rep, nil
}
