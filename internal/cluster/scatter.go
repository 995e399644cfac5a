package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"repro/internal/agg"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/witch"
)

// ShardResult is one peer's leg of a scatter-gather query: either its
// partitioned export for the requested window, or the error that made
// this leg partial. Hinted is the exporter's hinted-handoff ledger: for
// each pusher with batches parked in the exporter's hint queues, the
// destination peers those hints are bound for. The gather side uses it
// to prefer a hinter as the partition holder (its copy is a superset —
// a hint implies the data is in its own journal and store too) and to
// flag divergence when two reachable nodes both hold hints for the same
// pusher. Rev identifies the reconstructed view's content: equal
// (Peer, Rev) across scatters means an identical export, which is what
// rendered-response caches key on.
type ShardResult struct {
	Peer   string
	Export *store.Export
	Hinted map[string][]string // exporter's pending-hint ledger, by pusher
	Rev    uint64
	Err    error
}

// DigestEntry summarizes one pusher partition for anti-entropy: the
// highest sequence the dedup window has acked, how many batches the
// partition has merged all-time, and a checksum of its aggregate
// state. The merge count disambiguates equal-max comparisons: a blank
// node that caught mid-sequence hint replays can tie a survivor's max
// while holding only the replayed suffix, and without N the owner-wins
// checksum rule could propagate that incomplete copy.
type DigestEntry struct {
	Max uint64 `json:"max"`
	N   uint64 `json:"n"`
	Sum string `json:"sum"`
}

// Digest is one node's /v1/digest answer.
type Digest struct {
	Self    string                 `json:"self"`
	Ring    string                 `json:"ring"`
	Pushers map[string]DigestEntry `json:"pushers"`
}

// FetchDigest polls one peer's /v1/digest.
func (r *Router) FetchDigest(ctx context.Context, peer string) (*Digest, error) {
	ctx, cancel := context.WithTimeout(ctx, r.queryTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/digest", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(RingHeader, r.ringHash)
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("digest query: %s", resp.Status)
	}
	d := new(Digest)
	if err := json.NewDecoder(resp.Body).Decode(d); err != nil {
		return nil, fmt.Errorf("decoding digest: %w", err)
	}
	return d, nil
}

// PartitionTransfer is the unit anti-entropy repair pulls: one
// pusher's full bucket-structured history plus the dedup window that
// guards it, so the adopting node re-acks (never re-merges) retries of
// sequences the source had already acked.
type PartitionTransfer struct {
	Image     *store.PartitionImage
	DedupMax  uint64
	DedupBits []uint64
}

// FetchPartition pulls one pusher's transferable partition from a
// peer's /v1/shard?pusher= export.
func (r *Router) FetchPartition(ctx context.Context, peer, pusherID string) (*PartitionTransfer, error) {
	ctx, cancel := context.WithTimeout(ctx, r.queryTO)
	defer cancel()
	u := peer + "/v1/shard?pusher=" + url.QueryEscape(pusherID)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(RingHeader, r.ringHash)
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("partition query: %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading partition transfer: %w", err)
	}
	return decodePartitionTransfer(raw)
}

// AppendBinary appends the transfer's binary encoding (agg.Encoder): a
// presence flag and the image (store.PartitionImage.Encode), then the
// dedup window.
func (pt *PartitionTransfer) AppendBinary(dst []byte) []byte {
	e := agg.NewEncoder(dst)
	e.Bool(pt.Image != nil)
	if pt.Image != nil {
		pt.Image.Encode(e)
	}
	e.Uint(pt.DedupMax)
	e.Uint(uint64(len(pt.DedupBits)))
	for _, w := range pt.DedupBits {
		e.Uint(w)
	}
	return e.Bytes()
}

// decodePartitionTransfer reads one /v1/shard?pusher= reply. The
// decoder rejects an image the store could not install: a bucket with
// no State, or a State out of order.
func decodePartitionTransfer(raw []byte) (*PartitionTransfer, error) {
	d := agg.NewDecoder(raw)
	pt := new(PartitionTransfer)
	if d.Bool() {
		pt.Image = store.DecodePartitionImage(d)
	}
	pt.DedupMax = d.Uint()
	if n := d.Count(1); n > 0 {
		pt.DedupBits = make([]uint64, n)
		for i := range pt.DedupBits {
			pt.DedupBits[i] = d.Uint()
		}
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("decoding partition transfer: %w", err)
	}
	return pt, nil
}

// FetchTrace pulls one peer's locally retained spans for a trace ID
// (the scope=local leg of a /v1/trace gather — legs never recurse).
func (r *Router) FetchTrace(ctx context.Context, peer, traceID string) ([]obs.Span, error) {
	ctx, cancel := context.WithTimeout(ctx, r.queryTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peer+"/v1/trace/"+url.PathEscape(traceID)+"?scope=local", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(RingHeader, r.ringHash)
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil // peer holds no spans for this trace (or traces disabled)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace query: %s", resp.Status)
	}
	var body struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding trace: %w", err)
	}
	return body.Spans, nil
}

// PeerHealth is one peer's row in the fleet health view.
type PeerHealth struct {
	Peer     string       `json:"peer"`
	Err      string       `json:"error,omitempty"`
	Status   string       `json:"status,omitempty"`
	State    string       `json:"state,omitempty"`
	Ring     string       `json:"ring,omitempty"`
	Profiles uint64       `json:"profiles"`
	Batches  uint64       `json:"batches"`
	Health   witch.Health `json:"health"`
}

// PeerHealths polls every other peer's local /healthz concurrently
// and returns one row per peer in sorted order; an unreachable peer's
// row carries Err and zero values. The caller folds the rows into the
// fleet view with agg.MergeHealth (flags OR, counters sum) and can
// compare Ring against its own hash to spot membership skew.
func (r *Router) PeerHealths(ctx context.Context) []PeerHealth {
	out := make([]PeerHealth, len(r.others))
	var wg sync.WaitGroup
	for i, peer := range r.others {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			out[i] = r.fetchHealth(ctx, peer)
		}(i, peer)
	}
	wg.Wait()
	return out
}

func (r *Router) fetchHealth(ctx context.Context, peer string) PeerHealth {
	ph := PeerHealth{Peer: peer}
	ctx, cancel := context.WithTimeout(ctx, r.queryTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		ph.Err = err.Error()
		return ph
	}
	resp, err := r.client.Do(req)
	if err != nil {
		ph.Err = err.Error()
		return ph
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&ph); err != nil {
		ph.Err = fmt.Sprintf("decoding healthz: %v", err)
		return ph
	}
	ph.Peer = peer // never trust the body to overwrite the row key
	ph.Err = ""
	return ph
}
