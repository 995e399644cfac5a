package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/witch"
)

// durable is one incarnation of a crash-safe witchd over a shared data
// dir. "Crashing" it is Node.Kill: the HTTP listener closes and the
// journal is abandoned — no drain, no final snapshot, no sync —
// exactly what kill -9 leaves behind (modulo the page cache, which
// in-process tests cannot drop; torn tails are supplied by the fault
// injector instead).
type durable struct {
	node *Node
	srv  *Server
	pers *persistence
	ts   *httptest.Server
}

// openDurable boots a node through OpenNode, the recovery path main()
// uses.
func openDurable(t *testing.T, dir string, walOpts wal.Options, snapEvery uint64, now func() time.Time) *durable {
	t.Helper()
	node, err := OpenNode(NodeConfig{
		Store:         store.Config{Window: time.Minute, Buckets: 4, Now: now},
		Server:        Config{MaxBody: 4 << 20, Now: now},
		DataDir:       dir,
		Journal:       walOpts,
		SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatalf("recovery must never fail on crash damage: %v", err)
	}
	srv := node.Server()
	return &durable{node: node, srv: srv, pers: srv.pers, ts: httptest.NewServer(node.Handler())}
}

// crash abandons the incarnation without any graceful shutdown.
func (d *durable) crash() {
	d.ts.Close()
	d.node.Kill()
}

// drain is the graceful exit: the node's Drain after its listener
// closes.
func (d *durable) drain(t *testing.T) {
	t.Helper()
	d.ts.Close()
	if err := d.node.Drain(context.Background()); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
}

// fsyncModes runs a crash test once per journal durability mode: the
// per-append fsync path and the group-commit path. The mode hook edits
// a test's base wal.Options; the test body and its assertions are
// identical in both runs — group commit must not weaken any durability
// guarantee, only batch the fsyncs.
func fsyncModes(t *testing.T, run func(t *testing.T, mode func(wal.Options) wal.Options)) {
	t.Run("fsync=always", func(t *testing.T) {
		run(t, func(o wal.Options) wal.Options { return o })
	})
	t.Run("fsync=group", func(t *testing.T) {
		run(t, func(o wal.Options) wal.Options { o.GroupCommit = true; return o })
	})
}

// stepClock is a deterministic shared clock: every observation advances
// one second, so bucket layout (and therefore byte-level profile output)
// is reproducible across incarnations.
func stepClock() func() time.Time {
	var n atomic.Int64
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return t0.Add(time.Duration(n.Add(1)) * time.Second) }
}

// getProfile fetches the merged all-time profile as raw bytes.
func getProfile(t *testing.T, d *durable, tool string) []byte {
	t.Helper()
	resp, err := http.Get(d.ts.URL + "/v1/profile?tool=" + tool)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: HTTP %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestCrashRestartCycles is the tentpole proof: across repeated
// kill-restart cycles — with segment rotation and periodic snapshots
// both exercised by tiny thresholds — every acknowledged batch survives
// and GET /v1/profile returns byte-identical output before the crash
// and after recovery.
func TestCrashRestartCycles(t *testing.T) {
	fsyncModes(t, func(t *testing.T, mode func(wal.Options) wal.Options) {
		dir := t.TempDir()
		now := stepClock()
		profs := [][]byte{}
		for seed := int64(1); seed <= 3; seed++ {
			var buf bytes.Buffer
			if err := testProfile(t, seed).WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			profs = append(profs, buf.Bytes())
		}
		tool := testProfile(t, 1).Tool

		const cycles, perCycle = 5, 7
		var want []byte
		var acked int
		for c := 0; c < cycles; c++ {
			d := openDurable(t, dir, mode(wal.Options{SegmentBytes: 512}), 3, now)
			if want != nil {
				if got := getProfile(t, d, tool); !bytes.Equal(got, want) {
					t.Fatalf("cycle %d: recovered profile differs from pre-crash profile:\n%s\nvs\n%s", c, got, want)
				}
			}
			for i := 0; i < perCycle; i++ {
				resp := ingest(t, d.ts, profs[(c*perCycle+i)%len(profs)])
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("cycle %d batch %d: HTTP %d", c, i, resp.StatusCode)
				}
				acked++
			}
			want = getProfile(t, d, tool)
			d.crash()
		}

		// Final incarnation: state is intact and fully accounted for.
		d := openDurable(t, dir, mode(wal.Options{}), 0, now)
		defer d.crash()
		if got := getProfile(t, d, tool); !bytes.Equal(got, want) {
			t.Fatal("final recovery lost acknowledged data")
		}
		if got := d.srv.st.Stats().Ingested; got != uint64(acked) {
			t.Fatalf("recovered store accounts for %d profiles, %d were acked", got, acked)
		}
		// Snapshots were actually taken and anchored journal GC.
		if d.pers.recovery.SnapshotLSN == 0 {
			t.Fatal("no snapshot was ever recovered from despite snapEvery=3")
		}
		if d.pers.recovery.ReplayedBatches >= acked {
			t.Fatalf("replayed %d of %d batches: snapshots never absorbed the prefix", d.pers.recovery.ReplayedBatches, acked)
		}
	})
}

// TestCrashRecoveryWithDiskFaults drives ingest through an injector
// that fails journal writes the way real disks do — short writes,
// failed fsyncs, ENOSPC, torn mid-append records. The contract: a
// faulted batch is shed with 429/503 (+ Retry-After) and never
// acknowledged, an acknowledged batch is never lost, the daemon never
// crashes, and restart recovers to exactly the acked state.
func TestCrashRecoveryWithDiskFaults(t *testing.T) {
	fsyncModes(t, func(t *testing.T, mode func(wal.Options) wal.Options) {
		dir := t.TempDir()
		now := stepClock()
		var body bytes.Buffer
		prof := testProfile(t, 1)
		if err := prof.WriteJSON(&body); err != nil {
			t.Fatal(err)
		}

		var want []byte
		var acked, shed int
		for c := 0; c < 4; c++ {
			inj := fault.NewInjector(fault.Plan{
				Seed: int64(c + 1), ShortWrite: 0.2, SyncFail: 0.2, ENOSPC: 0.2, TornRecord: 0.05,
			})
			d := openDurable(t, dir, mode(wal.Options{SegmentBytes: 1024, Injector: inj}), 4, now)
			if want != nil {
				if got := getProfile(t, d, prof.Tool); !bytes.Equal(got, want) {
					t.Fatalf("cycle %d: recovery after faults lost acked state (acked=%d, recovered Ingested=%d, recovery=%+v)",
						c, acked, d.srv.st.Stats().Ingested, d.pers.recovery)
				}
			}
			for i := 0; i < 12; i++ {
				resp := ingest(t, d.ts, body.Bytes())
				switch resp.StatusCode {
				case http.StatusOK:
					acked++
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed++
					if resp.Header.Get("Retry-After") == "" {
						t.Fatalf("cycle %d batch %d: shed %d without Retry-After", c, i, resp.StatusCode)
					}
				default:
					t.Fatalf("cycle %d batch %d: HTTP %d (faults must shed, not error)", c, i, resp.StatusCode)
				}
			}
			if acked > 0 {
				want = getProfile(t, d, prof.Tool)
			}
			d.crash()
		}
		if shed == 0 || acked == 0 {
			t.Fatalf("chaos run did not exercise both paths: %d acked, %d shed", acked, shed)
		}

		// Clean final recovery (no injector): exactly the acked batches.
		d := openDurable(t, dir, mode(wal.Options{}), 0, now)
		defer d.crash()
		if got := getProfile(t, d, prof.Tool); !bytes.Equal(got, want) {
			t.Fatal("final recovery does not match acked state")
		}
		if got := d.srv.st.Stats().Ingested; got != uint64(acked) {
			t.Fatalf("recovered %d profiles, acked %d: shed batches must not land, acked must not vanish", got, acked)
		}
	})
}

// TestJournalFailureDisablesIngest: a torn-record fault (simulated
// mid-append crash) marks the journal failed; every later ingest is
// shed 503 until restart, and restart truncates the torn tail and
// serves again.
func TestJournalFailureDisablesIngest(t *testing.T) {
	dir := t.TempDir()
	now := stepClock()
	var body bytes.Buffer
	prof := testProfile(t, 1)
	prof.WriteJSON(&body)

	d := openDurable(t, dir, wal.Options{}, 0, now)
	if resp := ingest(t, d.ts, body.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("clean ingest: HTTP %d", resp.StatusCode)
	}
	want := getProfile(t, d, prof.Tool)
	d.crash()

	// Second incarnation tears its first append.
	d = openDurable(t, dir, wal.Options{Injector: fault.NewInjector(fault.Plan{Seed: 7, TornRecord: 1})}, 0, now)
	if resp := ingest(t, d.ts, body.Bytes()); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("torn append: HTTP %d, want 503", resp.StatusCode)
	}
	for i := 0; i < 3; i++ {
		resp := ingest(t, d.ts, body.Bytes())
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("post-failure ingest %d: HTTP %d, want 503 until restart", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("failed-journal shed must carry Retry-After")
		}
	}
	if !d.pers.journal.Failed() {
		t.Fatal("journal not marked failed after torn record")
	}
	d.crash()

	// Third incarnation: the torn tail is truncated, nothing acked lost.
	d = openDurable(t, dir, wal.Options{}, 0, now)
	defer d.crash()
	if !d.pers.recovery.TornTail {
		t.Fatalf("recovery report missed the torn tail: %+v", d.pers.recovery)
	}
	if got := getProfile(t, d, prof.Tool); !bytes.Equal(got, want) {
		t.Fatal("torn-tail truncation lost acked state")
	}
	if resp := ingest(t, d.ts, body.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after torn-tail recovery: HTTP %d", resp.StatusCode)
	}
}

// TestGroupCommitTornGangCleansTail is the group-commit twin of
// TestJournalFailureDisablesIngest. The commit path differs on purpose:
// a torn write inside a gang is rolled back (truncated) at commit time,
// because complete prefix frames of an all-nacked gang would otherwise
// be replayed while the pushers retry — duplicating batches. So here
// the journal still fails closed (503s until restart), but the restart
// finds a *clean* tail and, as always, loses nothing acknowledged.
func TestGroupCommitTornGangCleansTail(t *testing.T) {
	dir := t.TempDir()
	now := stepClock()
	var body bytes.Buffer
	prof := testProfile(t, 1)
	prof.WriteJSON(&body)

	grouped := wal.Options{GroupCommit: true}
	d := openDurable(t, dir, grouped, 0, now)
	if resp := ingest(t, d.ts, body.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("clean ingest: HTTP %d", resp.StatusCode)
	}
	want := getProfile(t, d, prof.Tool)
	d.crash()

	// Second incarnation tears its first gang.
	torn := grouped
	torn.Injector = fault.NewInjector(fault.Plan{Seed: 7, TornRecord: 1})
	d = openDurable(t, dir, torn, 0, now)
	if resp := ingest(t, d.ts, body.Bytes()); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("torn gang: HTTP %d, want 503", resp.StatusCode)
	}
	for i := 0; i < 3; i++ {
		resp := ingest(t, d.ts, body.Bytes())
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("post-failure ingest %d: HTTP %d, want 503 until restart", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("failed-journal shed must carry Retry-After")
		}
	}
	if !d.pers.journal.Failed() {
		t.Fatal("journal not marked failed after torn gang")
	}
	d.crash()

	// Third incarnation: the gang rollback already removed the torn
	// bytes, so recovery sees no torn tail — and nothing acked is lost,
	// nothing nacked is resurrected.
	d = openDurable(t, dir, grouped, 0, now)
	defer d.crash()
	if d.pers.recovery.TornTail {
		t.Fatalf("gang rollback should have cleaned the tail at commit time: %+v", d.pers.recovery)
	}
	if got := getProfile(t, d, prof.Tool); !bytes.Equal(got, want) {
		t.Fatal("torn-gang rollback lost acked state")
	}
	if got := d.srv.st.Stats().Ingested; got != 1 {
		t.Fatalf("recovered %d profiles, 1 was acked: a nacked gang member landed", got)
	}
	if resp := ingest(t, d.ts, body.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after torn-gang recovery: HTTP %d", resp.StatusCode)
	}
}

// TestLifecycleAndOverloadShedding covers the non-durability shed
// paths: pre-serving and draining states answer 503, a saturated
// inflight semaphore answers 429, and all carry Retry-After.
func TestLifecycleAndOverloadShedding(t *testing.T) {
	srv := newServer(store.New(store.Config{}), Config{MaxInflight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var body bytes.Buffer
	testProfile(t, 1).WriteJSON(&body)

	check := func(label string, wantStatus int) {
		t.Helper()
		resp := ingest(t, ts, body.Bytes())
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: HTTP %d, want %d", label, resp.StatusCode, wantStatus)
		}
		if wantStatus != http.StatusOK && resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: shed without Retry-After", label)
		}
	}

	check("starting", http.StatusServiceUnavailable)
	srv.setState(StateRecovering)
	check("recovering", http.StatusServiceUnavailable)
	srv.setState(StateServing)
	check("serving", http.StatusOK)

	// Saturate the inflight semaphore from the outside and watch the
	// overload path shed deterministically.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	check("semaphore full", http.StatusTooManyRequests)
	<-srv.sem
	<-srv.sem
	check("semaphore released", http.StatusOK)

	srv.setState(StateDraining)
	check("draining", http.StatusServiceUnavailable)
	if srv.shed.Load() == 0 {
		t.Fatal("shed counter never moved")
	}

	// Queries keep working while draining — only ingest is refused.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.State != "draining" {
		t.Fatalf("healthz state = %q, want draining", hz.State)
	}
}

// TestBacklogWatermarkSheds: with fsync off, unsynced journal bytes
// past the watermark shed ingest with 429 instead of letting the
// window of acknowledged-but-volatile data grow without bound.
func TestBacklogWatermarkSheds(t *testing.T) {
	fsyncModes(t, func(t *testing.T, mode func(wal.Options) wal.Options) {
		dir := t.TempDir()
		now := stepClock()
		node, err := OpenNode(NodeConfig{
			Store:   store.Config{Now: now},
			Server:  Config{MaxBody: 4 << 20, MaxBacklog: 64, Now: now},
			DataDir: dir,
			Journal: mode(wal.Options{NoSync: true}),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(node.Handler())
		defer ts.Close()
		pers := node.Server().pers

		var body bytes.Buffer
		testProfile(t, 1).WriteJSON(&body)
		if resp := ingest(t, ts, body.Bytes()); resp.StatusCode != http.StatusOK {
			t.Fatalf("first ingest: HTTP %d", resp.StatusCode)
		}
		// The first batch's bytes are well past the 64-byte watermark.
		resp := ingest(t, ts, body.Bytes())
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over watermark: HTTP %d, want 429", resp.StatusCode)
		}
		// Draining the backlog (sync) reopens ingest.
		if err := pers.journal.Sync(); err != nil {
			t.Fatal(err)
		}
		if resp := ingest(t, ts, body.Bytes()); resp.StatusCode != http.StatusOK {
			t.Fatalf("after sync: HTTP %d", resp.StatusCode)
		}
		if err := node.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGracefulShutdownRecoversInstantly: Shutdown() leaves a snapshot
// whose anchor equals the journal head, so the next boot replays
// nothing and the profile is byte-identical.
func TestGracefulShutdownRecoversInstantly(t *testing.T) {
	fsyncModes(t, func(t *testing.T, mode func(wal.Options) wal.Options) {
		dir := t.TempDir()
		now := stepClock()
		prof := testProfile(t, 1)
		var body bytes.Buffer
		prof.WriteJSON(&body)

		d := openDurable(t, dir, mode(wal.Options{}), 0, now)
		for i := 0; i < 3; i++ {
			if resp := ingest(t, d.ts, body.Bytes()); resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest %d: HTTP %d", i, resp.StatusCode)
			}
		}
		want := getProfile(t, d, prof.Tool)
		d.drain(t)

		d = openDurable(t, dir, mode(wal.Options{}), 0, now)
		defer d.crash()
		rec := d.pers.recovery
		if !rec.SnapshotLoaded || rec.ReplayedBatches != 0 {
			t.Fatalf("post-drain boot should be snapshot-only: %+v", rec)
		}
		if got := getProfile(t, d, prof.Tool); !bytes.Equal(got, want) {
			t.Fatal("graceful shutdown + recovery drifted")
		}
	})
}

// TestGobSnapshotSkipped: a snapshot an older build wrote in gob, CRC
// trailer and all, fails the binary format's magic after an upgrade. It
// is skipped and counted like a corrupt one, and startup still comes up
// serving the journal's batches.
func TestGobSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	now := stepClock()
	prof := testProfile(t, 1)
	var body bytes.Buffer
	prof.WriteJSON(&body)

	d := openDurable(t, dir, wal.Options{}, 0, now)
	for i := 0; i < 2; i++ {
		if resp := ingest(t, d.ts, body.Bytes()); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: HTTP %d", i, resp.StatusCode)
		}
	}
	want := getProfile(t, d, prof.Tool)
	d.crash()

	// The old layout: one gob value, then [CRC-32C][magic "WSN1"].
	old := struct {
		Version     int
		Anchor      uint64
		WindowNanos int64
		Ingested    uint64
		Rollup      *agg.State
		Extra       []byte
	}{Version: 1, Anchor: 1, WindowNanos: int64(time.Minute), Ingested: 1, Rollup: &agg.State{}, Extra: []byte("dedup")}
	var snap bytes.Buffer
	if err := gob.NewEncoder(&snap).Encode(&old); err != nil {
		t.Fatal(err)
	}
	raw := binary.BigEndian.AppendUint32(snap.Bytes(), crc32.Checksum(snap.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	raw = binary.BigEndian.AppendUint32(raw, 0x57534e31)
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d = openDurable(t, dir, wal.Options{}, 0, now)
	defer d.crash()
	rec := d.pers.recovery
	if rec.SnapshotsSkipped != 1 || rec.SnapshotLoaded || rec.ReplayedBatches != 2 {
		t.Fatalf("gob snapshot not skipped for the journal: %+v", rec)
	}
	if got := getProfile(t, d, prof.Tool); !bytes.Equal(got, want) {
		t.Fatal("recovery beside a gob snapshot lost acknowledged data")
	}
}

// TestSnapshotCRCFallback: a bit-rotted snapshot — even one whose gob
// still decodes — fails its CRC trailer and recovery falls back to the
// next-newest loadable snapshot plus the journal suffix, losing
// nothing acknowledged.
func TestSnapshotCRCFallback(t *testing.T) {
	dir := t.TempDir()
	now := stepClock()
	prof := testProfile(t, 1)
	var body bytes.Buffer
	prof.WriteJSON(&body)

	d := openDurable(t, dir, wal.Options{}, 0, now)
	for i := 0; i < 3; i++ {
		if resp := ingest(t, d.ts, body.Bytes()); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: HTTP %d", i, resp.StatusCode)
		}
	}
	want := getProfile(t, d, prof.Tool)
	d.drain(t)

	// Plant a CORRUPT snapshot at a higher LSN than the good one: the
	// disk-rot scenario where the newest checkpoint is damaged. Recovery
	// must skip it on checksum and load the older good snapshot.
	snaps := listSnapshots(dir)
	if len(snaps) == 0 {
		t.Fatal("graceful shutdown left no snapshot")
	}
	good := snaps[0]
	raw, err := os.ReadFile(filepath.Join(dir, snapName(good)))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x20
	if err := os.WriteFile(filepath.Join(dir, snapName(good+5)), bad, 0o644); err != nil {
		t.Fatal(err)
	}

	d = openDurable(t, dir, wal.Options{}, 0, now)
	defer d.crash()
	rec := d.pers.recovery
	if rec.SnapshotsSkipped != 1 {
		t.Fatalf("corrupt snapshot not skipped: %+v", rec)
	}
	if !rec.SnapshotLoaded || rec.SnapshotLSN != good {
		t.Fatalf("did not fall back to the good snapshot at %d: %+v", good, rec)
	}
	if got := getProfile(t, d, prof.Tool); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery lost acknowledged data")
	}
	// With every snapshot corrupt, recovery still comes up from the
	// journal alone.
	d.ts.Close()
	for _, lsn := range listSnapshots(dir) {
		if err := os.WriteFile(filepath.Join(dir, snapName(lsn)), bad, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d2 := openDurable(t, dir, wal.Options{}, 0, now)
	defer d2.crash()
	if d2.pers.recovery.SnapshotLoaded {
		t.Fatalf("loaded a corrupt snapshot: %+v", d2.pers.recovery)
	}
}

// TestLegacyBinaryJournalReplays: a journal written while pushers sent
// WITCHB1 documents still replays after an upgrade. The WITCHB1 fixture
// batch, journaled as it arrived, recovers to the /v1/profile that the
// same batch sent as WITCHB2 builds on a fresh node.
func TestLegacyBinaryJournalReplays(t *testing.T) {
	legacy, err := os.ReadFile("../../witch/testdata/witchb1_batch.bin")
	if err != nil {
		t.Fatal(err)
	}
	var dec witch.BatchDecoder
	profs, err := dec.Decode(legacy)
	if err != nil {
		t.Fatal(err)
	}
	var tools []string
	var current []byte
	for _, pr := range profs {
		tools = append(tools, pr.Tool)
		current = pr.AppendBinary(current)
	}
	if bytes.HasPrefix(current, legacy[:8]) {
		t.Fatal("AppendBinary still writes the legacy format")
	}

	live := openDurable(t, t.TempDir(), wal.Options{}, 0, stepClock())
	if resp := ingest(t, live.ts, current); resp.StatusCode != http.StatusOK {
		t.Fatalf("WITCHB2 ingest: HTTP %d", resp.StatusCode)
	}
	want := map[string][]byte{}
	for _, tool := range tools {
		want[tool] = getProfile(t, live, tool)
	}
	live.crash()

	dir := t.TempDir()
	now := stepClock()
	d := openDurable(t, dir, wal.Options{}, 0, now)
	if resp := ingest(t, d.ts, legacy); resp.StatusCode != http.StatusOK {
		t.Fatalf("WITCHB1 ingest: HTTP %d", resp.StatusCode)
	}
	d.crash()
	var journaled [][]byte
	if err := wal.Replay(dir, 0, func(r wal.Record) error {
		_, _, _, _, body, ok := splitEnvelope(r.Payload)
		if !ok {
			t.Fatal("journal record without an envelope")
		}
		journaled = append(journaled, body)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(journaled) != 1 || !bytes.Equal(journaled[0], legacy) {
		t.Fatalf("journal holds %d records, want the WITCHB1 body once", len(journaled))
	}

	d = openDurable(t, dir, wal.Options{}, 0, now)
	defer d.crash()
	if rec := d.pers.recovery; rec.ReplayedBatches != 1 || rec.ReplayedProfiles != 2 || rec.SkippedRecords != 0 {
		t.Fatalf("WITCHB1 journal did not replay: %+v", rec)
	}
	for _, tool := range tools {
		if got := getProfile(t, d, tool); !bytes.Equal(got, want[tool]) {
			t.Fatalf("%s: replayed WITCHB1 journal differs from the live WITCHB2 batch:\nwant %s\ngot  %s", tool, want[tool], got)
		}
	}
}
