package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
)

// NodeConfig is everything one witchd node is built from. OpenNode
// derives the rest: hint journals live under DataDir/hints (in memory
// without a data dir) and take only the journal's NoSync, and the
// journal's commit stage and the cluster router report to Server.Obs.
type NodeConfig struct {
	Store  store.Config
	Server Config
	// DataDir holds the journal, snapshots and hint journals ("" =
	// memory-only: nothing survives the process).
	DataDir string
	Journal wal.Options
	// SnapshotEvery is the acked-batch count between snapshots (0 =
	// snapshot only on Drain).
	SnapshotEvery uint64
	// Cluster joins a ring (nil = single node). A clustered node always
	// runs the replication engine.
	Cluster     *cluster.Config
	Replication ReplicationConfig
	// ReadHeaderTimeout bounds header reads on Serve (default 10s).
	ReadHeaderTimeout time.Duration
	// Chaos destroys responses to committed POSTs (fault.LostAck,
	// fault.RespCorrupt) — a test seam like wal.Options.Injector.
	Chaos *fault.Injector
}

// Node is one assembled witchd: recovered, joined to its ring, with
// replication running and /healthz reporting serving.
type Node struct {
	srv *Server
	h   http.Handler
	hs  *http.Server
}

// OpenNode is the only place that knows a node's lifecycle order.
// Boot: starting → recovering (with a data dir) → cluster →
// replication → serving; Drain and Kill hold the teardown order. A
// failed boot abandons the journal it opened and returns no node, so
// nothing ever serves half-assembled.
func OpenNode(cfg NodeConfig) (_ *Node, err error) {
	st := store.New(cfg.Store)
	s := newServer(st, cfg.Server)
	ob := cfg.Server.Obs
	if cfg.DataDir != "" {
		s.setState(StateRecovering)
		jopts := cfg.Journal
		jopts.Inflight = func() int { return int(s.toJournal.Load()) }
		if ob != nil {
			jopts.ObserveCommit = func(wait time.Duration) { ob.Stage(obs.StageJournal, wait) }
		}
		if s.pers, err = openPersistence(cfg.DataDir, st, s.ded, &s.applyMu, jopts, cfg.SnapshotEvery); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		defer func() {
			if err != nil {
				s.pers.Abandon()
			}
		}()
	}
	if cfg.Cluster != nil {
		cc := *cfg.Cluster
		cc.Obs = ob
		if s.cl, err = cluster.New(cc); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		hintDir := ""
		if cfg.DataDir != "" {
			// A data-dir wipe is a full identity wipe, hints included.
			hintDir = filepath.Join(cfg.DataDir, "hints")
		}
		if err := s.startReplication(cfg.Replication, hintDir, wal.Options{NoSync: cfg.Journal.NoSync}); err != nil {
			return nil, fmt.Errorf("replication: %w", err)
		}
	}
	n := &Node{srv: s, h: s.Handler()}
	if cfg.Chaos != nil {
		n.h = chaosHandler(n.h, cfg.Chaos)
	}
	n.hs = hardenedServer(n.h, cfg.ReadHeaderTimeout)
	s.setState(StateServing)
	return n, nil
}

// Handler is the node's API for callers that serve it in-process.
func (n *Node) Handler() http.Handler { return n.h }

// Serve runs the hardened HTTP server on ln until Drain or Kill.
func (n *Node) Serve(ln net.Listener) error { return n.hs.Serve(ln) }

// Server exposes the running server for stats and the synchronous
// RepairNow / DrainHintsNow hooks.
func (n *Node) Server() *Server { return n.srv }

// Recovery is what boot recovery found (zero without a data dir).
func (n *Node) Recovery() RecoveryReport {
	if n.srv.pers == nil {
		return RecoveryReport{}
	}
	return n.srv.pers.recovery
}

// JournalCommits is the journal's physical write(+fsync) count: acked
// batches over it is the mean commit-gang size (0 without a data dir).
func (n *Node) JournalCommits() uint64 {
	if n.srv.pers == nil {
		return 0
	}
	return n.srv.pers.journal.Commits()
}

// Drain is the graceful exit: ingest answers 503, in-flight requests
// finish (an unfinished drain when ctx ends is logged, not fatal),
// replication stops with undelivered hints kept on disk — before the
// snapshot, because its loops write through the same journal barrier —
// and a final snapshot leaves the next boot nothing to replay. The
// error is the final snapshot's.
func (n *Node) Drain(ctx context.Context) error {
	n.srv.setState(StateDraining)
	if err := n.hs.Shutdown(ctx); err != nil {
		obs.Default().Warn("witchd", "drain incomplete", "err", err)
	}
	n.srv.stopReplication()
	if p := n.srv.pers; p != nil {
		return p.Shutdown()
	}
	return nil
}

// Kill is kill -9: connections severed, hint journals and the journal
// abandoned unsynced, no snapshot. Recovery rebuilds whatever the page
// cache already holds.
func (n *Node) Kill() {
	n.hs.Close()
	n.srv.abortReplication()
	if p := n.srv.pers; p != nil {
		p.Abandon()
	}
}

// hardenedServer builds an http.Server with the protection limits a
// daemon facing a fleet of pushers (and whatever else can reach its
// port) needs. The zero-value http.Server has none of them: a single
// client that opens a connection and trickles header bytes — or simply
// goes silent — holds a file descriptor and a goroutine forever
// (slow-loris). readHeaderTimeout <= 0 takes the default.
func hardenedServer(h http.Handler, readHeaderTimeout time.Duration) *http.Server {
	if readHeaderTimeout <= 0 {
		readHeaderTimeout = 10 * time.Second
	}
	return &http.Server{
		Handler: h,
		// A well-behaved pusher sends its entire header burst in one
		// round trip; anyone still dribbling after this is a slow-loris.
		ReadHeaderTimeout: readHeaderTimeout,
		// Bodies are bounded by MaxBody (default 32 MiB); even over a
		// slow link a legitimate ingest finishes far inside this.
		ReadTimeout: 2 * time.Minute,
		// Keep-alive is welcome (pushers reuse connections), but an idle
		// connection is not a lease on a file descriptor.
		IdleTimeout: 2 * time.Minute,
		// Header space for the idempotency key and friends is a few
		// hundred bytes; 64 KiB is generous, the 1 MiB default is a gift
		// to memory-exhaustion attacks.
		MaxHeaderBytes: 64 << 10,
	}
}
