package main

import (
	"strings"
	"testing"
	"time"
)

// TestFlagValidation: a bad deployment config must die loudly at parse
// time with an error naming the offending flag, and a good one must
// land every value.
func TestFlagValidation(t *testing.T) {
	good, err := parseFlags([]string{
		"-addr", "127.0.0.1:9147", "-window", "30s", "-buckets", "10",
		"-data-dir", "/tmp/w", "-fsync", "off", "-snapshot-every", "0",
		"-max-inflight", "8", "-max-backlog", "-1", "-segment-bytes", "1024",
	})
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if g := good.node; g.Store.Window != 30*time.Second || g.Store.Buckets != 10 || g.DataDir != "/tmp/w" ||
		!g.Journal.NoSync || g.Journal.GroupCommit || g.SnapshotEvery != 0 || g.Server.MaxInflight != 8 ||
		g.Server.MaxBacklog != -1 || g.Journal.SegmentBytes != 1024 {
		t.Fatalf("flags mis-parsed: %+v", good)
	}

	// Group commit with a linger bound, plus the pprof listener.
	grouped, err := parseFlags([]string{
		"-data-dir", "/tmp/w", "-fsync", "group", "-commit-delay", "500us",
		"-pprof", "127.0.0.1:6060",
	})
	if err != nil {
		t.Fatalf("valid group-commit flags rejected: %v", err)
	}
	if !grouped.node.Journal.GroupCommit || grouped.node.Journal.MaxCommitDelay != 500*time.Microsecond ||
		grouped.pprofAddr != "127.0.0.1:6060" {
		t.Fatalf("group-commit flags mis-parsed: %+v", grouped)
	}

	// Cluster membership: the advertised URL defaults to the listen
	// address and the peer ring is validated at flag time.
	clustered, err := parseFlags([]string{
		"-addr", "127.0.0.1:9147",
		"-peers", "http://127.0.0.1:9147, http://127.0.0.1:9148,http://127.0.0.1:9149",
	})
	if err != nil {
		t.Fatalf("valid cluster flags rejected: %v", err)
	}
	if cc := clustered.node.Cluster; cc == nil || cc.Self != "http://127.0.0.1:9147" || len(cc.Peers) != 3 {
		t.Fatalf("cluster flags mis-parsed: %+v", clustered)
	}
	if r := clustered.node.Replication; clustered.node.Cluster.ReplicationFactor != 2 || r.HintMaxBytes != 64<<20 ||
		r.DrainInterval != time.Second || r.RepairInterval != 30*time.Second {
		t.Fatalf("replication defaults mis-parsed: %+v", clustered)
	}

	// A factor larger than the ring caps at the ring: the documented
	// default (2) must work on any -peers list without hand-tuning.
	capped, err := parseFlags([]string{
		"-addr", "127.0.0.1:9147", "-replication-factor", "5",
		"-peers", "http://127.0.0.1:9147,http://127.0.0.1:9148",
	})
	if err != nil {
		t.Fatalf("oversized replication factor rejected: %v", err)
	}
	if rf := capped.node.Cluster.ReplicationFactor; rf != 2 {
		t.Fatalf("replication factor not capped at ring size: %d", rf)
	}

	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"zero window", []string{"-window", "0s"}, "-window"},
		{"negative window", []string{"-window", "-1m"}, "-window"},
		{"zero buckets", []string{"-buckets", "0"}, "-buckets"},
		{"negative max-body", []string{"-max-body", "-5"}, "-max-body"},
		{"zero inflight", []string{"-max-inflight", "0"}, "-max-inflight"},
		{"zero backlog", []string{"-max-backlog", "0"}, "-max-backlog"},
		{"negative snapshot-every", []string{"-snapshot-every", "-1"}, "-snapshot-every"},
		{"zero segment-bytes", []string{"-segment-bytes", "0"}, "-segment-bytes"},
		{"bad fsync policy", []string{"-fsync", "sometimes"}, "-fsync"},
		{"fsync off without data dir", []string{"-fsync", "off"}, "-data-dir"},
		{"fsync group without data dir", []string{"-fsync", "group"}, "-data-dir"},
		{"negative commit-delay", []string{"-data-dir", "/tmp/w", "-fsync", "group", "-commit-delay", "-1ms"}, "-commit-delay"},
		{"commit-delay without group", []string{"-data-dir", "/tmp/w", "-commit-delay", "1ms"}, "-commit-delay"},
		{"pprof without port", []string{"-pprof", "localhost"}, "-pprof"},
		{"addr without port", []string{"-addr", "localhost"}, "-addr"},
		{"unknown flag", []string{"-wat"}, "-wat"},
		{"zero max-top-n", []string{"-max-top-n", "0"}, "-max-top-n"},
		{"advertise without peers", []string{"-advertise", "http://a:1"}, "-advertise"},
		{"one-node peers", []string{"-peers", "http://127.0.0.1:9147"}, "-peers"},
		{"self missing from peers", []string{"-addr", "127.0.0.1:9147",
			"-peers", "http://127.0.0.1:9148,http://127.0.0.1:9149"}, "-peers"},
		{"duplicate peers", []string{"-addr", "127.0.0.1:9147",
			"-peers", "http://127.0.0.1:9147,http://127.0.0.1:9147"}, "-peers"},
		{"peer with bad scheme", []string{"-addr", "127.0.0.1:9147",
			"-peers", "http://127.0.0.1:9147,ftp://127.0.0.1:9148"}, "-peers"},
		{"empty peer entry", []string{"-addr", "127.0.0.1:9147",
			"-peers", "http://127.0.0.1:9147,"}, "-peers"},
		{"zero replication factor", []string{"-replication-factor", "0"}, "-replication-factor"},
		{"zero hint-max-bytes", []string{"-hint-max-bytes", "0"}, "-hint-max-bytes"},
		{"zero hint-drain-interval", []string{"-hint-drain-interval", "0s"}, "-hint-drain-interval"},
		{"zero repair-interval", []string{"-repair-interval", "0s"}, "-repair-interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if err == nil {
				t.Fatalf("parseFlags(%v) accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
