package daemon

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// handleMetrics serves the node's counters, gauges, and latency
// histograms in the Prometheus text exposition format (0.0.4): every
// family carries its # HELP and # TYPE metadata, families are emitted
// in sorted name order, and samples within a family in a fixed order
// (labels sorted; histogram buckets ascending) — so two scrapes with
// unchanged counters are byte-identical and diffable, and promtool
// check metrics passes. Everything here is a cheap atomic load or an
// already-locked stats snapshot; the one aggregate walk (live pair
// counts) is the same one /healthz pays.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var fams []obs.MetricFamily
	sample := func(name, help, typ string, samples ...string) {
		fams = append(fams, obs.MetricFamily{Name: name, Help: help, Type: typ, Samples: samples})
	}
	counter := func(name, help string, v uint64) {
		sample(name, help, "counter", name+" "+strconv.FormatUint(v, 10))
	}
	gauge := func(name, help string, v uint64) {
		sample(name, help, "gauge", name+" "+strconv.FormatUint(v, 10))
	}

	version, goVersion := buildInfo()
	sample("witchd_build_info", "Build metadata; the value is always 1.", "gauge",
		`witchd_build_info{go="`+goVersion+`",version="`+version+`"} 1`)
	sample("witchd_state", "Lifecycle state; the label names it, the value is always 1.", "gauge",
		fmt.Sprintf("witchd_state{state=%q} 1", StateName(s.state.Load())))
	counter("witchd_ingest_batches_total", "Ingest batches accepted locally.", s.batches.Load())
	counter("witchd_ingest_rejected_total", "Ingest requests rejected as invalid.", s.rejected.Load())
	counter("witchd_ingest_shed_total", "Ingest requests shed for overload or lifecycle.", s.shed.Load())
	counter("witchd_ingest_forwarded_in_total", "Batches that arrived via a peer's routing hop.", s.forwardedIn.Load())
	counter("witchd_ingest_replicated_in_total", "Batches applied via a peer's replication leg.", s.replicatedIn.Load())
	counter("witchd_ring_mismatches_total", "Inter-node requests rejected for ring skew.", s.ringMismatches.Load())
	counter("witchd_queries_total", "/v1/top and /v1/profile requests served.", s.queries.Load())
	counter("witchd_query_cache_hits_total", "Query responses served from the rendered cache.", s.viewHits.Load())
	counter("witchd_query_cache_misses_total", "Query responses materialized and rendered.", s.viewMisses.Load())

	st := s.st.Stats()
	counter("witchd_store_ingested_profiles_total", "Profiles merged into the retention store.", st.Ingested)
	gauge("witchd_store_live_buckets", "Retention buckets currently live.", uint64(st.LiveBuckets))
	counter("witchd_store_evicted_buckets_total", "Retention buckets evicted into the rollup.", st.EvictedBuckets)
	gauge("witchd_store_live_pairs", "Aggregated pairs across live buckets.", uint64(st.LivePairs))
	gauge("witchd_store_rollup_pairs", "Aggregated pairs in the evicted rollup.", uint64(st.RollupPairs))
	gauge("witchd_store_partitions", "Per-pusher partitions the store holds.", uint64(st.Partitions))

	cst := s.st.CacheStats()
	counter("witchd_store_query_cache_hits_total", "Store query-view cache hits.", cst.QueryHits)
	counter("witchd_store_query_cache_misses_total", "Store query-view cache misses.", cst.QueryMisses)
	counter("witchd_store_export_cache_hits_total", "Store export cache hits.", cst.ExportHits)
	counter("witchd_store_export_cache_misses_total", "Store export cache misses.", cst.ExportMisses)
	counter("witchd_store_export_parts_reused_total", "Partitions an export miss took unchanged from the previous export.", cst.ExportPartsReused)
	counter("witchd_store_export_parts_rebuilt_total", "Partitions an export miss merged afresh.", cst.ExportPartsRebuilt)

	ds := s.ded.Stats()
	gauge("witchd_dedup_pushers", "Pushers with a live dedup window.", uint64(ds.Pushers))
	gauge("witchd_dedup_max_pushers", "Dedup pusher-table capacity.", uint64(ds.MaxPushers))
	gauge("witchd_dedup_tombstones", "Evicted-pusher tombstones held.", uint64(ds.Tombstones))
	counter("witchd_dedup_duplicates_reacked_total", "In-window duplicate sequences re-acked.", ds.Duplicates)
	counter("witchd_dedup_stale_reacked_total", "Below-window stale sequences re-acked.", ds.Stale)
	counter("witchd_dedup_evicted_pushers_total", "Dedup windows evicted to capacity.", ds.EvictedPushers)

	if p := s.pers; p != nil {
		gauge("witchd_journal_lsn", "Last journal LSN assigned.", p.journal.LastLSN())
		gauge("witchd_journal_failed", "1 when the journal has failed and ingest is gated.", uint64(b2i(p.journal.Failed())))
		gauge("witchd_journal_unsynced_bytes", "Journal bytes appended but not yet fsynced.", uint64(p.journal.UnsyncedBytes()))
		counter("witchd_journal_errors_total", "Journal append/sync errors.", p.journalErrors.Load())
		counter("witchd_snapshots_total", "Snapshots taken.", p.snapshots.Load())
		counter("witchd_snapshot_errors_total", "Snapshot attempts that failed.", p.snapErrors.Load())
		gauge("witchd_last_snapshot_lsn", "Journal LSN the newest snapshot anchors.", p.lastSnapLSN.Load())
	}

	if cl := s.cl; cl != nil {
		cs := cl.StatsSnapshot()
		gauge("witchd_cluster_peers", "Ring size, this node included.", uint64(len(cs.Peers)))
		gauge("witchd_cluster_replication_factor", "Configured replication factor.", uint64(cs.RF))
		counter("witchd_cluster_forwards_total", "Keyed batches forwarded to their owner.", cs.Forwards)
		counter("witchd_cluster_forward_shed_total", "Forwards the owner shed with backpressure.", cs.ForwardShed)
		counter("witchd_cluster_forward_errors_total", "Forward legs that produced no verdict.", cs.ForwardErrors)
		counter("witchd_cluster_forward_reroutes_total", "Forwards rerouted past a breaker-open owner.", cs.ForwardReroutes)
		counter("witchd_cluster_replicates_total", "Replication legs acked durably by a follower.", cs.Replicates)
		counter("witchd_cluster_replicate_errors_total", "Replication legs that failed.", cs.ReplicateErrors)
		counter("witchd_cluster_scatters_total", "Scatter-gather query fan-outs.", cs.Scatters)
		counter("witchd_cluster_scatter_partials_total", "Scatters with at least one failed leg.", cs.ScatterPartials)
		counter("witchd_cluster_scatter_bytes_total", "Bytes received across scatter legs.", cs.ScatterBytes)
		counter("witchd_cluster_scatter_full_legs_total", "Scatter legs answered with a full export.", cs.ScatterFullLegs)
		counter("witchd_cluster_scatter_delta_legs_total", "Scatter legs answered with a delta.", cs.ScatterDeltaLegs)
		var open, trips, fwd, ferr []string
		for _, ps := range cl.PeerStates() {
			open = append(open, fmt.Sprintf("witchd_peer_breaker_open{peer=%q} %d", ps.Peer, b2i(ps.Open)))
			trips = append(trips, fmt.Sprintf("witchd_peer_breaker_trips_total{peer=%q} %d", ps.Peer, ps.Trips))
			fwd = append(fwd, fmt.Sprintf("witchd_peer_forwards_total{peer=%q} %d", ps.Peer, ps.Forwards))
			ferr = append(ferr, fmt.Sprintf("witchd_peer_forward_errors_total{peer=%q} %d", ps.Peer, ps.Errors))
		}
		sort.Strings(open)
		sort.Strings(trips)
		sort.Strings(fwd)
		sort.Strings(ferr)
		sample("witchd_peer_breaker_open", "1 while the peer's circuit breaker is open.", "gauge", open...)
		sample("witchd_peer_breaker_trips_total", "Times the peer's breaker tripped open.", "counter", trips...)
		sample("witchd_peer_forwards_total", "Forward attempts per peer.", "counter", fwd...)
		sample("witchd_peer_forward_errors_total", "Failed forward attempts per peer.", "counter", ferr...)
	}

	if s.repl != nil {
		rs := s.repl.stats()
		counter("witchd_hints_queued_total", "Hinted-handoff records queued.", rs.HintsQueued)
		counter("witchd_hints_replayed_total", "Hints drained to their destination.", rs.HintsReplayed)
		counter("witchd_hints_dropped_total", "Hints evicted to the per-peer byte bound.", rs.HintsDropped)
		counter("witchd_hints_rejected_total", "Hints the healed destination durably refused.", rs.HintsRejected)
		counter("witchd_hint_append_errors_total", "Hint journal append failures.", rs.HintAppendErrors)
		counter("witchd_replicate_rejected_total", "Fanout legs a follower durably refused.", rs.ReplicateRejected)
		gauge("witchd_hints_pending", "Hints queued and not yet drained.", uint64(rs.HintsPending))
		var pend, hb []string
		for _, hp := range rs.HintPeers {
			pend = append(pend, fmt.Sprintf("witchd_hints_pending_peer{peer=%q} %d", hp.Peer, hp.Pending))
			hb = append(hb, fmt.Sprintf("witchd_hint_bytes_peer{peer=%q} %d", hp.Peer, hp.Bytes))
		}
		sort.Strings(pend)
		sort.Strings(hb)
		sample("witchd_hints_pending_peer", "Pending hints per destination peer.", "gauge", pend...)
		sample("witchd_hint_bytes_peer", "Hint journal bytes per destination peer.", "gauge", hb...)
		counter("witchd_repair_rounds_total", "Anti-entropy rounds run.", rs.RepairRounds)
		counter("witchd_repair_pulls_total", "Partitions adopted from a peer by repair.", rs.RepairPulls)
		counter("witchd_repair_conflicts_total", "Repair pulls that resolved a checksum conflict.", rs.RepairConflicts)
		counter("witchd_repair_errors_total", "Repair legs that errored.", rs.RepairErrors)
	}

	fams = append(fams, s.cfg.Obs.MetricFamilies()...)

	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		buf.WriteString("# HELP ")
		buf.WriteString(f.Name)
		buf.WriteByte(' ')
		buf.WriteString(f.Help)
		buf.WriteString("\n# TYPE ")
		buf.WriteString(f.Name)
		buf.WriteByte(' ')
		buf.WriteString(f.Type)
		buf.WriteByte('\n')
		for _, line := range f.Samples {
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// buildInfo resolves the binary's module version and Go toolchain once
// (debug.ReadBuildInfo walks the embedded module graph — not a
// per-scrape cost).
var (
	buildOnce            sync.Once
	buildVersion, goVers string
)

func buildInfo() (version, goVersion string) {
	buildOnce.Do(func() {
		buildVersion, goVers = "unknown", runtime.Version()
		if bi, ok := debug.ReadBuildInfo(); ok {
			if bi.Main.Version != "" {
				buildVersion = bi.Main.Version
			}
			if bi.GoVersion != "" {
				goVers = bi.GoVersion
			}
		}
	})
	return buildVersion, goVers
}

// buildInfoBlock is /healthz's build stanza.
func buildInfoBlock() map[string]string {
	version, goVersion := buildInfo()
	return map[string]string{"version": version, "go": goVersion}
}
