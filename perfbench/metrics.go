package main

import "strings"

// metricDef names one metric, its unit, which way is better and the
// workloads that measure it. BENCHMARK.json lists the same names; the
// smoke test checks that the two agree.
type metricDef struct{ name, unit, better, in string }

// Workload sets for metricDef.in.
const (
	inAll     = "profile ingest fleet"
	inProfile = "profile"
	inService = "ingest fleet"
	inFleet   = "fleet"
)

func (m metricDef) measuredBy(workload string) bool {
	for _, w := range strings.Fields(m.in) {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the gated metrics every workload prints with --trace 0.
// Each workload gives them its own unit of work: a profiled witch.Run on
// profile, an acked batch on ingest, a dashboard refresh on fleet. All
// but mem_mb are scaled to a reference host speed (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", inAll},
	{"mem_mb", "MB", "lower", inAll},
	{"p50_ms", "ms", "lower", inAll},
	{"cpu_us_per_op", "us", "lower", inAll},
}

// perLayer are the metrics a --trace 1 run prints. A run fails unless it
// measured every metric its workload is listed for; it prints 0 for the
// others, layers that workload never enters.
var perLayer = []metricDef{
	// Whole-workload numbers measured in the untraced half of the run,
	// unscaled. p90_ms is the tail of the end-to-end unit of work; it
	// repeats too loosely between runs to gate (see NOTES.md).
	{"p90_ms", "ms", "lower", inAll},
	{"overhead_x", "x", "lower", inProfile},
	{"minstr_per_s", "Minstr/s", "higher", inProfile},
	{"ack_p50_ms", "ms", "lower", inService},
	{"ack_p90_ms", "ms", "lower", inService},
	{"ack_p99_ms", "ms", "lower", inService},
	{"cpu_us_per_ack", "us", "lower", inService},
	{"query_p50_ms", "ms", "lower", inFleet},
	{"query_p90_ms", "ms", "lower", inFleet},
	{"query_p99_ms", "ms", "lower", inFleet},
	{"daemon.peak_rss_mb", "MB", "lower", inService},
	{"host.calib_ms", "ms", "lower", inAll},
	{"host.calib_cpu_ms", "ms", "lower", inAll},
	{"trace.overhead_frac", "frac", "lower", inAll},
	{"residual_frac", "frac", "lower", inAll},
	// profile: machine, pmu, perfevent, hwdebug, witch, craft.
	{"machine.ns_per_instr", "ns", "lower", inProfile},
	{"pmu.ns_per_instr", "ns", "lower", inProfile},
	{"witch.ns_per_sample", "ns", "lower", inProfile},
	{"witch.samples_per_minstr", "count", "lower", inProfile},
	{"witch.monitored_frac", "frac", "higher", inProfile},
	{"hwdebug.traps_per_sample", "count", "lower", inProfile},
	{"hwdebug.spurious_trap_frac", "frac", "lower", inProfile},
	{"perfevent.opens_per_sample", "count", "lower", inProfile},
	{"perfevent.modifies_per_sample", "count", "lower", inProfile},
	{"perfevent.disasm_per_trap", "count", "lower", inProfile},
	{"witch.tool_kb", "KB", "lower", inProfile},
	// ingest and fleet: generator, Pusher, daemon, agg; fleet alone has
	// a journal.
	{"gen.late_p50_ms", "ms", "lower", inService},
	{"gen.late_max_ms", "ms", "lower", inService},
	{"witch.queue_p50_ms", "ms", "lower", inService},
	{"witch.attempt_p50_ms", "ms", "lower", inService},
	{"daemon.ingest_ms", "ms", "lower", inService},
	{"daemon.decode_ms", "ms", "lower", inService},
	{"daemon.dedup_ms", "ms", "lower", inService},
	{"wal.commit_wait_ms", "ms", "lower", inFleet},
	{"agg.merge_ms", "ms", "lower", inService},
	{"net.residual_ms", "ms", "lower", inService},
	{"daemon.snapshots_per_kack", "count", "lower", inFleet},
	{"wal.bytes_per_ack", "B", "lower", inFleet},
	{"daemon.shed_frac", "frac", "lower", inService},
	// fleet: cluster, store, query path.
	{"cluster.forward_frac", "frac", "lower", inFleet},
	{"cluster.replicate_ms", "ms", "lower", inFleet},
	{"cluster.scatter_leg_ms", "ms", "lower", inFleet},
	{"cluster.peer_rtt_ms", "ms", "lower", inFleet},
	{"cluster.scatter_bytes_per_query", "B", "lower", inFleet},
	{"cluster.delta_leg_frac", "frac", "higher", inFleet},
	{"daemon.view_hit_frac", "frac", "higher", inFleet},
	{"store.cache_hit_frac", "frac", "higher", inFleet},
	{"daemon.query_ms", "ms", "lower", inFleet},
	{"agg.fold_ms", "ms", "lower", inFleet},
	{"daemon.hints_queued", "count", "lower", inFleet},
}
