package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// NoteReroute counts a forward that skipped a breaker-open replica in
// favor of the next preference-list member.
func (r *Router) NoteReroute() { r.forwardReroutes.Add(1) }

// ReplicateResult is the follower's verdict on a replicated batch.
type ReplicateResult struct {
	Status    int
	Duplicate bool // follower had already applied this sequence
}

// Replicate ships one keyed batch to a replica peer's /v1/replicate
// endpoint and waits for its durable (journal-before-ack) verdict. ts
// is the coordinator's ingest wall time; the follower buckets at that
// instant, so both copies of the batch land in the same retention
// window. A nil error means the follower has the batch durably (fresh
// or as a dedup re-ack). Any error means replication did NOT happen
// and the caller must fall back to a hinted handoff or shed the batch
// un-acked — never ack on a failed leg.
//
// The same per-peer breaker that guards forwards guards replication:
// a breaker-open peer fails fast here, and a replication failure opens
// the breaker for forwards too (it is the same TCP path that is down).
func (r *Router) Replicate(ctx context.Context, peer, ctype, pusherID string, seq uint64, ts time.Time, body []byte) (*ReplicateResult, error) {
	rep, err := r.postLeg(ctx, peer, "/v1/replicate", "replicate", ctype, pusherID, seq, body,
		TimestampHeader, strconv.FormatInt(ts.UnixNano(), 10), 0)
	if err != nil {
		r.replicateErrors.Add(1)
		return nil, err
	}
	// A torn body after the status line is ignored: unlike forwards
	// (where the body IS the relayed pusher ack), the replication verdict
	// is the status alone, and a 2xx means the follower committed before
	// writing it.
	if rep.status < 200 || rep.status >= 300 {
		ra := r.parseRetryAfter(rep.header)
		verdict := rep.status == http.StatusTooManyRequests || rep.status == http.StatusServiceUnavailable
		if verdict && ra <= 0 {
			ra = DefaultRetryAfter
		}
		r.breakerFailure(peer, ra, verdict)
		r.replicateErrors.Add(1)
		return nil, &PeerDownError{Peer: peer, RetryAfter: ra, Status: rep.status,
			Err: fmt.Errorf("replica %s refused batch: status %d", peer, rep.status)}
	}
	r.breakerSuccess(peer)
	r.replicates.Add(1)
	return &ReplicateResult{
		Status:    rep.status,
		Duplicate: rep.header.Get("X-Witch-Duplicate") != "",
	}, nil
}
