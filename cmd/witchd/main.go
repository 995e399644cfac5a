// Command witchd is a continuous-profiling aggregation daemon: many
// profiled processes push their witch profiles to it, and it serves one
// merged, time-windowed, queryable view of the fleet's inefficiencies.
// It is the paper's collect/inspect split (§6.5) turned into a service —
// hpcrun measurement files become POST /v1/ingest, hpcviewer becomes
// GET /v1/top and GET /v1/profile — in the spirit of detectors that run
// continuously in production rather than once per experiment.
//
// Usage:
//
//	witchd -addr 127.0.0.1:9147 -window 1m -buckets 60 -data-dir /var/lib/witchd
//
//	# From a profiled process (or use witch.Pusher in-process):
//	witch -tool dead -workload gcc -json prof.json
//	curl --data-binary @prof.json http://127.0.0.1:9147/v1/ingest
//
//	# Inspect the merged fleet view:
//	curl 'http://127.0.0.1:9147/v1/top?tool=DeadCraft&window=-1h&n=10'
//	witchdiff 'http://127.0.0.1:9147/v1/profile?tool=DeadCraft&window=-2h' \
//	          'http://127.0.0.1:9147/v1/profile?tool=DeadCraft&window=-1h'
//
// The tool parameter matches the profile's own tool string (DeadCraft,
// SilentCraft, LoadCraft, or a spy name for exhaustive runs).
//
// Profiles are merged keyed by ⟨tool, program, context-pair signature⟩;
// retention is a ring of fixed time windows with expired buckets folded
// into a rollup, so memory stays bounded under indefinite ingest.
//
// With -data-dir set, witchd is crash-safe: every acknowledged batch is
// appended to a CRC-framed write-ahead journal before the 200 is
// returned, the store is periodically snapshotted, and startup recovery
// replays the journal suffix past the newest snapshot, truncating any
// torn tail. -fsync group keeps the per-ack durability guarantee while
// batching concurrent appends into one fsync (group commit). SIGTERM
// drains gracefully: ingest gets 503, in-flight requests finish, the
// journal is fsynced and a final snapshot taken. See docs/INTERNALS.md,
// "Aggregation service (witchd)", "Durability & recovery", and "Ingest
// fast path & group commit".
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/obs"
)

// daemonFlags is every knob, parsed then validated as a unit so a bad
// deployment config dies loudly at startup instead of panicking later
// or silently running with a default the operator did not choose.
// Flags that map one-to-one onto the node's config land in node
// directly; validate derives the rest of it.
type daemonFlags struct {
	node       daemon.NodeConfig
	addr       string
	fsync      string
	snapEvery  int
	pprofAddr  string
	peers      string
	advertise  string
	rf         int
	traceRing  int
	slowCap    int
	slowThresh time.Duration
	logLevel   string
	peerList   []string // validated split of peers
	level      obs.Level
}

func parseFlags(args []string) (*daemonFlags, error) {
	fs := flag.NewFlagSet("witchd", flag.ContinueOnError)
	f := &daemonFlags{}
	n := &f.node
	fs.StringVar(&f.addr, "addr", "127.0.0.1:9147", "listen address")
	fs.DurationVar(&n.Store.Window, "window", time.Minute, "retention bucket width")
	fs.IntVar(&n.Store.Buckets, "buckets", 60, "live retention buckets (older data rolls up)")
	fs.Int64Var(&n.Server.MaxBody, "max-body", 32<<20, "largest accepted ingest body in bytes")
	fs.IntVar(&n.Server.MaxInflight, "max-inflight", 64, "concurrent ingest requests before shedding 429s")
	fs.Int64Var(&n.Server.MaxBacklog, "max-backlog", 64<<20, "unsynced journal bytes before shedding 429s (with -fsync off; negative disables, 0 invalid)")
	fs.StringVar(&n.DataDir, "data-dir", "", "durability directory for journal + snapshots (empty: in-memory only)")
	fs.StringVar(&f.fsync, "fsync", "always", "journal fsync policy: always (fsync before every ack), group (one fsync per commit gang, same guarantee), or off (page cache only)")
	fs.DurationVar(&n.Journal.MaxCommitDelay, "commit-delay", 0, "with -fsync group: extra time the committer lingers to gather a gang (0 = the previous fsync is the batching window)")
	fs.IntVar(&f.snapEvery, "snapshot-every", 256, "acknowledged batches between snapshots (0: snapshot only on shutdown)")
	fs.Int64Var(&n.Journal.SegmentBytes, "segment-bytes", 8<<20, "journal segment size before rotation")
	fs.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this host:port (empty: disabled)")
	fs.Uint64Var(&n.Server.DedupWindow, "dedup-window", daemon.DefaultDedupWindow, "per-pusher idempotency window in sequences (rounded up to a multiple of 64)")
	fs.IntVar(&n.Server.DedupMaxPushers, "dedup-max-pushers", daemon.DefaultDedupMaxPushers, "distinct pusher identities tracked for dedup before LRU eviction")
	fs.DurationVar(&n.ReadHeaderTimeout, "read-header-timeout", 10*time.Second, "disconnect clients that have not finished sending headers within this window")
	fs.IntVar(&n.Server.MaxTopN, "max-top-n", 1000, "largest accepted n for /v1/top (response-size cap)")
	fs.StringVar(&f.peers, "peers", "", "comma-separated base URLs of every cluster node, this one included (empty: single node)")
	fs.StringVar(&f.advertise, "advertise", "", "this node's base URL as it appears in -peers (default http://<addr>)")
	fs.IntVar(&f.rf, "replication-factor", 2, "copies of each pusher's partition across the ring; with -peers, acks wait for a durable follower copy (capped at the peer count; 1 = replication off)")
	fs.Int64Var(&n.Replication.HintMaxBytes, "hint-max-bytes", 64<<20, "per-peer hinted-handoff journal bound; overflow evicts oldest hints, leaving convergence to repair (negative: unbounded)")
	fs.DurationVar(&n.Replication.DrainInterval, "hint-drain-interval", time.Second, "how often queued hints are replayed at healed peers")
	fs.DurationVar(&n.Replication.RepairInterval, "repair-interval", 30*time.Second, "anti-entropy digest-compare cadence (negative: disabled)")
	fs.IntVar(&f.traceRing, "trace-ring", 4096, "completed spans retained for /v1/trace (0: tracing off)")
	fs.IntVar(&f.slowCap, "slow-capture", 32, "slowest recent requests retained for /v1/slow (0: capture off)")
	fs.DurationVar(&f.slowThresh, "slow-threshold", 0, "log one structured warn line per request at or over this duration (0: off)")
	fs.StringVar(&f.logLevel, "log-level", "info", "lowest log severity emitted: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return f, f.validate()
}

func (f *daemonFlags) validate() error {
	n := &f.node
	if n.Store.Window <= 0 {
		return fmt.Errorf("-window must be positive, got %v", n.Store.Window)
	}
	if n.Store.Buckets <= 0 {
		return fmt.Errorf("-buckets must be positive, got %d", n.Store.Buckets)
	}
	if n.Server.MaxBody <= 0 {
		return fmt.Errorf("-max-body must be positive, got %d", n.Server.MaxBody)
	}
	if n.Server.MaxInflight <= 0 {
		return fmt.Errorf("-max-inflight must be positive, got %d", n.Server.MaxInflight)
	}
	if n.Server.MaxBacklog == 0 {
		return fmt.Errorf("-max-backlog must be nonzero (use a negative value to disable the watermark)")
	}
	if f.snapEvery < 0 {
		return fmt.Errorf("-snapshot-every must be >= 0, got %d", f.snapEvery)
	}
	if n.Journal.SegmentBytes <= 0 {
		return fmt.Errorf("-segment-bytes must be positive, got %d", n.Journal.SegmentBytes)
	}
	if f.fsync != "always" && f.fsync != "group" && f.fsync != "off" {
		return fmt.Errorf("-fsync must be \"always\", \"group\", or \"off\", got %q", f.fsync)
	}
	if n.Journal.MaxCommitDelay < 0 {
		return fmt.Errorf("-commit-delay must be >= 0, got %v", n.Journal.MaxCommitDelay)
	}
	if n.Journal.MaxCommitDelay > 0 && f.fsync != "group" {
		return fmt.Errorf("-commit-delay only applies with -fsync group")
	}
	if _, _, err := net.SplitHostPort(f.addr); err != nil {
		return fmt.Errorf("-addr %q is not host:port: %v", f.addr, err)
	}
	if f.pprofAddr != "" {
		if _, _, err := net.SplitHostPort(f.pprofAddr); err != nil {
			return fmt.Errorf("-pprof %q is not host:port: %v", f.pprofAddr, err)
		}
	}
	if n.DataDir == "" && f.fsync != "always" {
		return fmt.Errorf("-fsync %s is meaningless without -data-dir", f.fsync)
	}
	if n.Server.DedupWindow == 0 {
		return fmt.Errorf("-dedup-window must be positive")
	}
	if n.Server.DedupMaxPushers <= 0 {
		return fmt.Errorf("-dedup-max-pushers must be positive, got %d", n.Server.DedupMaxPushers)
	}
	if n.ReadHeaderTimeout <= 0 {
		return fmt.Errorf("-read-header-timeout must be positive, got %v", n.ReadHeaderTimeout)
	}
	if n.Server.MaxTopN <= 0 {
		return fmt.Errorf("-max-top-n must be positive, got %d", n.Server.MaxTopN)
	}
	if f.advertise != "" && f.peers == "" {
		return fmt.Errorf("-advertise only applies with -peers")
	}
	if f.rf < 1 {
		return fmt.Errorf("-replication-factor must be >= 1, got %d", f.rf)
	}
	if n.Replication.HintMaxBytes == 0 {
		return fmt.Errorf("-hint-max-bytes must be nonzero (use a negative value for unbounded)")
	}
	if n.Replication.DrainInterval <= 0 {
		return fmt.Errorf("-hint-drain-interval must be positive, got %v", n.Replication.DrainInterval)
	}
	if n.Replication.RepairInterval == 0 {
		return fmt.Errorf("-repair-interval must be nonzero (use a negative value to disable)")
	}
	if f.traceRing < 0 {
		return fmt.Errorf("-trace-ring must be >= 0, got %d", f.traceRing)
	}
	if f.slowCap < 0 {
		return fmt.Errorf("-slow-capture must be >= 0, got %d", f.slowCap)
	}
	if f.slowThresh < 0 {
		return fmt.Errorf("-slow-threshold must be >= 0, got %v", f.slowThresh)
	}
	lv, err := obs.ParseLevel(f.logLevel)
	if err != nil {
		return fmt.Errorf("-log-level: %v", err)
	}
	f.level = lv
	n.Journal.NoSync = f.fsync == "off"
	n.Journal.GroupCommit = f.fsync == "group"
	n.SnapshotEvery = uint64(f.snapEvery)
	if f.peers != "" {
		if f.advertise == "" {
			f.advertise = "http://" + f.addr
		}
		for _, raw := range strings.Split(f.peers, ",") {
			p := strings.TrimSpace(raw)
			if p == "" {
				return fmt.Errorf("-peers has an empty entry in %q", f.peers)
			}
			f.peerList = append(f.peerList, p)
		}
		// A ring smaller than the requested factor holds as many copies
		// as it has nodes; cap rather than die so the documented default
		// (2) works on any ring, including a single-node one.
		if f.rf > len(f.peerList) {
			f.rf = len(f.peerList)
		}
		// Full ring validation (schemes, duplicates, self in list) is
		// cluster.New's; run it here so a bad config dies at flag time.
		cc := cluster.Config{Self: f.advertise, Peers: f.peerList, ReplicationFactor: f.rf}
		if _, err := cluster.New(cc); err != nil {
			return fmt.Errorf("-peers: %v", err)
		}
		n.Cluster = &cc
	}
	return nil
}

func main() {
	f, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "witchd: %v\n", err)
		os.Exit(2)
	}

	// The structured logger and the observer come up before anything
	// that might want to log or record: recovery warnings and cluster
	// boot lines go through the same key=value pipe as steady state.
	obs.SetDefault(obs.NewLogger(os.Stderr, f.level))
	logger := obs.Default()
	self := f.advertise
	if self == "" {
		self = f.addr
	}
	ob := obs.New(obs.Options{
		Node:          self,
		TraceRing:     f.traceRing,
		SlowCapture:   f.slowCap,
		SlowThreshold: f.slowThresh,
		Log:           logger,
	})

	f.node.Server.Obs = ob
	f.node.Replication.Logf = logger.Logf("repl")
	if f.node.Cluster != nil {
		f.node.Cluster.Logf = logger.Logf("cluster")
	}

	// Bind before recovery so a taken port fails fast, but serve only
	// once OpenNode returns (readiness = /healthz state "serving").
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "witchd: listen: %v\n", err)
		os.Exit(1)
	}
	var pln net.Listener
	if f.pprofAddr != "" {
		if pln, err = net.Listen("tcp", f.pprofAddr); err != nil {
			fmt.Fprintf(os.Stderr, "witchd: pprof listen: %v\n", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	node, err := daemon.OpenNode(f.node)
	if err != nil {
		fmt.Fprintf(os.Stderr, "witchd: %v\n", err)
		os.Exit(1)
	}
	if cl := node.Server().Cluster(); cl != nil {
		logger.Info("witchd", "cluster joined",
			"nodes", len(cl.Peers()), "self", cl.Self(), "rf", f.rf)
	}
	if pln != nil {
		// Opt-in profiling endpoints on their own listener: never on the
		// ingest port, and an explicit mux so nothing else the process
		// might register on http.DefaultServeMux leaks out.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(pln, pmux); err != nil {
				logger.Warn("witchd", "pprof server exited", "err", err)
			}
		}()
		logger.Info("witchd", "pprof listening", "addr", f.pprofAddr)
	}
	if f.node.DataDir != "" {
		rec := node.Recovery()
		logger.Info("witchd", "recovered",
			"took", time.Since(start).Round(time.Millisecond),
			"snapshot_lsn", rec.SnapshotLSN, "snapshot_loaded", rec.SnapshotLoaded,
			"replayed_batches", rec.ReplayedBatches,
			"torn_tail", rec.TornTail, "truncated_bytes", rec.TruncatedBytes)
	}

	errc := make(chan error, 1)
	go func() { errc <- node.Serve(ln) }()
	logger.Info("witchd", "serving",
		"addr", f.addr, "window", f.node.Store.Window, "buckets", f.node.Store.Buckets,
		"durability", durabilityLabel(f), "trace_ring", f.traceRing)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		logger.Error("witchd", "server failed", "err", err)
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("witchd", "draining (ingest now 503)", "signal", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := node.Drain(ctx); err != nil {
		logger.Error("witchd", "final snapshot failed", "err", err)
		os.Exit(1)
	}
	logger.Info("witchd", "drained clean")
}

func durabilityLabel(f *daemonFlags) string {
	if f.node.DataDir == "" {
		return "off"
	}
	return fmt.Sprintf("%s fsync=%s snapshot-every=%d", f.node.DataDir, f.fsync, f.snapEvery)
}
