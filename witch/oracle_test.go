package witch_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/witch"
)

// The machine determinism oracle pins everything a run of the simulated
// machine produces, so an interpreter change that is meant to be
// invisible can be shown to be: one SHA-256 per (program, craft, seed)
// over the profile's deterministic content, and one per program over the
// native run's counters and each exhaustive spy's profile. The hashes in
// testdata were recorded before the retire loop was rewritten.
//
// Regenerate (only for an intended change to guest-visible behaviour):
//
//	go test ./witch -run TestMachineDeterminismOracle -update-oracle
var updateOracle = flag.Bool("update-oracle", false, "rewrite testdata/machine_oracle.txt")

const oracleFile = "testdata/machine_oracle.txt"

// oraclePrograms is the perfbench profile mix plus the quick suite.
var oraclePrograms = []string{"gcc", "h264ref", "mcf", "xalancbmk", "lbm", "hmmer", "sjeng"}

var oracleTools = []witch.Tool{witch.DeadStores, witch.SilentStores, witch.RedundantLoads}

// oracleVariants reach the retire loop's less common paths: IBS counting
// of non-memory instructions, the PEBS shadow (at periods where shadowed
// overflows change the profile), several threads sharing quanta, and
// kernel-view signal-frame writes without the alternate stack.
var oracleVariants = []struct {
	key, program string
	opts         witch.Options
}{
	{"gcc/load/ibs", "gcc", witch.Options{Tool: witch.RedundantLoads, IBSSampling: true, Seed: 3}},
	{"hmmer/dead/shadow", "hmmer", witch.Options{Tool: witch.DeadStores, ShadowSampling: true, Period: 97, Seed: 3}},
	{"calculix/silent/shadow", "calculix", witch.Options{Tool: witch.SilentStores, ShadowSampling: true, Period: 499, Seed: 3}},
	{"pardead/dead/threads4", "pardead", witch.Options{Tool: witch.DeadStores, Threads: 4, Seed: 3}},
	{"parcounters/silent/threads2", "parcounters", witch.Options{Tool: witch.SilentStores, Threads: 2, Seed: 3}},
	{"stacksignals/dead/noaltstack", "stacksignals", witch.Options{Tool: witch.DeadStores, DisableAltStack: true, Period: 97, Seed: 3}},
}

// profileDigest hashes a profile's deterministic content: everything but
// the wall time.
func profileDigest(t *testing.T, p *witch.Profile) string {
	t.Helper()
	meta := *p
	meta.WallTime = 0
	var buf bytes.Buffer
	if err := witch.NewProfile(meta, p.TopPairs(0)).WriteJSONCompact(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func oracleDigests(t *testing.T) map[string]string {
	got := map[string]string{}
	for _, name := range oraclePrograms {
		prog, err := witch.Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := prog.RunNative()
		if err != nil {
			t.Fatalf("%s native: %v", name, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "instrs=%d loads=%d stores=%d footprint=%d", st.Instrs, st.Loads, st.Stores, st.FootprintBytes)
		for _, tool := range oracleTools {
			ex, err := witch.RunExhaustive(prog, tool)
			if err != nil {
				t.Fatalf("%s/%s exhaustive: %v", name, tool, err)
			}
			fmt.Fprintf(h, " %s=%s", tool, profileDigest(t, ex))
			for seed := int64(1); seed <= 2; seed++ {
				p, err := witch.Run(prog, witch.Options{Tool: tool, Seed: seed})
				if err != nil {
					t.Fatalf("%s/%s/seed%d: %v", name, tool, seed, err)
				}
				if p.Instrs != st.Instrs {
					t.Errorf("%s/%s/seed%d: profiled run retired %d instructions, native %d", name, tool, seed, p.Instrs, st.Instrs)
				}
				got[fmt.Sprintf("%s/%s/seed%d", name, tool, seed)] = profileDigest(t, p)
			}
		}
		got[name+"/native+exhaustive"] = hex.EncodeToString(h.Sum(nil))
	}
	for _, v := range oracleVariants {
		prog, err := witch.Workload(v.program)
		if err != nil {
			t.Fatal(err)
		}
		p, err := witch.Run(prog, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.key, err)
		}
		got[v.key] = profileDigest(t, p)
	}
	return got
}

func TestMachineDeterminismOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the oracle programs end to end")
	}
	got := oracleDigests(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *updateOracle {
		var buf bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&buf, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(oracleFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oracleFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(oracleFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed oracle line %q", sc.Text())
		}
		want[k] = v
	}
	if len(want) != len(got) {
		t.Errorf("oracle has %d entries, run produced %d", len(want), len(got))
	}
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, oracle %s", k, got[k], want[k])
		}
	}
}
