// Delta scatter: the read-path counterpart of replicated forwarding.
//
// Re-shipping every peer's entire window export per query would cost
// O(total state) bytes on the wire even when nothing changed between
// polls. Instead the coordinator is stateful: it remembers, per (peer,
// window), the last full export it reconstructed and the epoch vector
// it was built at (internal/store's ExportVersion), presents that
// vector on the next scatter, and the peer ships only the partitions
// whose epochs moved plus tombstones for the ones that vanished.
// Patching the remembered baseline with the delta reproduces the
// peer's current full export exactly — same *agg.State values — so
// query results are byte-identical to a full fetch's.
//
// Correctness never depends on the cache being right: the version
// vector travels with the baseline, and the peer full-ships whenever
// the presented vector is from another generation or clock quantum (or
// the first contact, when there is none). An errored leg keeps the
// stale baseline for later but reports the peer unreachable — cached
// data is never passed off as a live answer.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"repro/internal/agg"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// DeltaRequest is the /v1/shard POST body: the caller's last-seen
// version vector for this peer+window. A zero-value request (nil
// Epochs) asks for a full export.
type DeltaRequest struct {
	Ver store.ExportVersion
}

// ShardDelta is the /v1/shard POST response envelope: an export delta
// plus the exporter's hinted-handoff ledger (always full — hints are
// tiny and change independently of store epochs).
type ShardDelta struct {
	Delta  *store.ExportDelta
	Hinted map[string][]string
}

// scatterEntry is one (peer, window) baseline. mu serializes
// fetch+patch per key, so two concurrent queries cannot interleave
// their deltas; the maps inside are mutated in place by patches, which
// is why readers get shallow copies made under mu (see snapshot).
type scatterEntry struct {
	mu     sync.Mutex
	ver    store.ExportVersion
	export *store.Export
	hinted map[string][]string
	rev    uint64 // bumped whenever the reconstructed view changes
}

func (r *Router) scatterEntryFor(peer, rawWindow string) *scatterEntry {
	key := peer + "\x00" + rawWindow
	r.scMu.Lock()
	defer r.scMu.Unlock()
	e := r.scatterCache[key]
	if e == nil {
		e = &scatterEntry{}
		r.scatterCache[key] = e
	}
	return e
}

// snapshot returns a shallow copy of the entry's reconstructed export:
// fresh top-level maps over the shared immutable *agg.State values, so
// a later patch (which replaces map entries) cannot race a merge that
// is still iterating this result. Callers must hold e.mu.
func (e *scatterEntry) snapshot() (*store.Export, map[string][]string) {
	out := &store.Export{Parts: make(map[string]*agg.State, len(e.export.Parts))}
	for id, st := range e.export.Parts {
		out.Parts[id] = st
	}
	return out, e.hinted
}

// apply patches the entry with one delta response (from
// decodeShardDelta, which always sets Delta.Export) and reports
// whether the reconstructed view changed. Callers must hold e.mu.
func (e *scatterEntry) apply(sd *ShardDelta) bool {
	d := sd.Delta
	changed := false
	if d.Full || e.export == nil {
		e.export = &store.Export{Parts: make(map[string]*agg.State, len(d.Export.Parts))}
		for id, st := range d.Export.Parts {
			e.export.Parts[id] = st
		}
		changed = true
	} else {
		for id, st := range d.Export.Parts {
			e.export.Parts[id] = st
			changed = true
		}
		for _, id := range d.Tombstones {
			delete(e.export.Parts, id)
			changed = true
		}
	}
	e.ver = d.Ver
	if !hintedEqual(e.hinted, sd.Hinted) {
		e.hinted = sd.Hinted
		changed = true
	}
	if changed {
		e.rev++
	}
	return changed
}

// AppendBinary appends the request's binary encoding (a WITCHA1 payload):
// Gen, BucketIdx, then the Epochs map.
func (req *DeltaRequest) AppendBinary(dst []byte) []byte {
	e := agg.NewEncoder(dst)
	appendVersion(e, &req.Ver)
	return e.Bytes()
}

// DecodeDeltaRequest reads one /v1/shard POST body. Its epoch map is
// never nil: a first-contact request still gets a full export, since
// its zero Gen matches no store's.
func DecodeDeltaRequest(raw []byte) (DeltaRequest, error) {
	d := agg.NewDecoder(raw)
	req := DeltaRequest{Ver: readVersion(d)}
	if err := d.Close(); err != nil {
		return DeltaRequest{}, err
	}
	return req, nil
}

// AppendBinary appends the reply's binary encoding: Full, the changed
// partitions, the tombstones, the version, then the hint ledger.
func (sd *ShardDelta) AppendBinary(dst []byte) []byte {
	e := agg.NewEncoder(dst)
	dl := sd.Delta
	e.Bool(dl.Full)
	var parts map[string]*agg.State
	if dl.Export != nil {
		parts = dl.Export.Parts
	}
	wire.EncodeMap(e, parts, func(st *agg.State) { agg.EncodeState(e, st) })
	e.Strs(dl.Tombstones)
	appendVersion(e, &dl.Ver)
	wire.EncodeMap(e, sd.Hinted, e.Strs)
	return e.Bytes()
}

// decodeShardDelta reads one /v1/shard POST reply. The decoder rejects
// a changed partition out of State order, which the coordinator's fold
// (State.Scope's binary search) would silently drop rows of. Its Export
// and maps are never nil.
func decodeShardDelta(raw []byte) (*ShardDelta, error) {
	d := agg.NewDecoder(raw)
	dl := &store.ExportDelta{Full: d.Bool()}
	dl.Export = &store.Export{Parts: wire.DecodeMap(d, agg.MinStateBytes, func() *agg.State { return agg.DecodeState(d) })}
	dl.Tombstones = d.Strs()
	dl.Ver = readVersion(d)
	sd := &ShardDelta{Delta: dl, Hinted: wire.DecodeMap(d, 1, d.Strs)}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	return sd, nil
}

func appendVersion(e *wire.Encoder, v *store.ExportVersion) {
	e.Uint(v.Gen)
	e.Int(v.BucketIdx)
	wire.EncodeMap(e, v.Epochs, e.Uint)
}

func readVersion(d *wire.Decoder) store.ExportVersion {
	return store.ExportVersion{Gen: d.Uint(), BucketIdx: d.Int(), Epochs: wire.DecodeMap(d, 1, d.Uint)}
}

func hintedEqual(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// ScatterDeltas fans a window query out to every other peer's
// /v1/shard through the per-peer baselines and gathers the
// reconstructed partitioned exports. Results come back in peer order
// (sorted), one entry per peer, errors in place — the caller merges
// the anonymous partitions from every reachable peer, picks exactly
// one holder per pusher partition (dedup across replicas), and reports
// the failures as the query's Incomplete set rather than failing the
// query. rawWindow is passed through verbatim (the caller already
// validated it against its own parser, which is the same parser the
// peer will use).
//
// Each leg POSTs the remembered version vector, applies the delta
// under the entry lock, and returns a shallow-copied snapshot of the
// reconstructed export — a fraction of the bytes when epochs are
// unchanged. The Rev in each result identifies the reconstructed
// view's content: two scatters returning equal (Peer, Rev) pairs
// returned identical exports, which is what the daemon's
// rendered-response cache keys on. Error legs report Err; the stale
// baseline is kept for the peer's recovery but never served as a live
// answer.
//
// Scatter legs deliberately ignore the forwarding breakers: those
// track the ingest path, and a peer refusing writes can still answer
// reads. Each leg is bounded by QueryTimeout instead.
func (r *Router) ScatterDeltas(ctx context.Context, rawWindow string) []ShardResult {
	r.scatters.Add(1)
	t0 := r.obs.Start()
	out := make([]ShardResult, len(r.others))
	var wg sync.WaitGroup
	for i, peer := range r.others {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			out[i] = r.fetchShardDelta(ctx, peer, rawWindow)
		}(i, peer)
	}
	wg.Wait()
	r.obs.StageSince(obs.StageScatterFanout, t0)
	partial := false
	for _, sr := range out {
		if sr.Err != nil {
			partial = true
			if r.logf != nil {
				r.logf("cluster: scatter leg %s failed: %v", sr.Peer, sr.Err)
			}
		}
	}
	if partial {
		r.scatterPartials.Add(1)
	}
	return out
}

func (r *Router) fetchShardDelta(ctx context.Context, peer, rawWindow string) ShardResult {
	sr := ShardResult{Peer: peer}
	e := r.scatterEntryFor(peer, rawWindow)
	// Hold the entry across fetch+patch: concurrent queries to one peer
	// serialize here, so a delta is always applied to the exact baseline
	// its request vector described. The wait is its own stage, outside
	// the leg's clock.
	tw := r.obs.Start()
	e.mu.Lock()
	defer e.mu.Unlock()
	r.obs.StageSince(obs.StageScatterWait, tw)

	ctx, cancel := context.WithTimeout(ctx, r.queryTO)
	defer cancel()
	u := peer + "/v1/shard"
	if rawWindow != "" {
		u += "?window=" + url.QueryEscape(rawWindow)
	}
	body := (&DeltaRequest{Ver: e.ver}).AppendBinary(nil)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		sr.Err = err
		return sr
	}
	req.Header.Set(RingHeader, r.ringHash)
	req.Header.Set("Content-Type", agg.ContentType)
	sp := r.traceSpan(ctx, req, "scatter_leg", peer)
	t0 := r.obs.Start()
	defer func() {
		r.obs.PeerSince("scatter", peer, t0)
		if sr.Err != nil {
			sp.Fail(sr.Err.Error())
		}
		sp.End()
	}()
	resp, err := r.client.Do(req)
	if err != nil {
		sr.Err = err
		return sr
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sr.Err = fmt.Errorf("shard query: %s", resp.Status)
		return sr
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		sr.Err = fmt.Errorf("reading shard delta: %w", err)
		return sr
	}
	r.scatterBytes.Add(uint64(len(raw)))
	defer r.obs.StageSince(obs.StageScatterDecode, r.obs.Start())
	sd, err := decodeShardDelta(raw)
	if err != nil {
		sr.Err = fmt.Errorf("shard delta from %s: %w", peer, err)
		return sr
	}
	if sd.Delta.Full {
		r.scatterFullLegs.Add(1)
	} else {
		r.scatterDeltaLegs.Add(1)
	}
	e.apply(sd)
	sr.Export, sr.Hinted = e.snapshot()
	sr.Rev = e.rev
	return sr
}
