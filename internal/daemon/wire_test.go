package daemon

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"repro/internal/store"
	"repro/witch"
)

// TestBinaryAndJSONIngestAgreeByteForByte: the same profiles POSTed as
// raw JSON (the way curl or a CI smoke sends them) and pushed by a
// Pusher (always the binary encoding) must produce byte-identical
// GET /v1/profile output — the wire format is an optimization, never a
// semantic fork, and the daemon keeps taking JSON.
func TestBinaryAndJSONIngestAgreeByteForByte(t *testing.T) {
	profs := []*witch.Profile{testProfile(t, 1), testProfile(t, 2), testProfile(t, 3)}
	tool := profs[0].Tool
	now := func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }

	view := func(ts string) []byte {
		t.Helper()
		resp, err := http.Get(ts + "/v1/profile?tool=" + tool)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("profile: HTTP %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	_, curl := newTestServer(t, store.Config{Now: now})
	for _, prof := range profs {
		var body bytes.Buffer
		if err := prof.WriteJSON(&body); err != nil {
			t.Fatal(err)
		}
		if resp := ingest(t, curl, body.Bytes()); resp.StatusCode != http.StatusOK {
			t.Fatalf("raw JSON POST: HTTP %d", resp.StatusCode)
		}
	}

	srv, pushed := newTestServer(t, store.Config{Now: now})
	p, err := witch.NewPusher(witch.PusherOptions{URL: pushed.URL, Queue: 8, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range profs {
		if !p.Push(prof) {
			t.Fatal("push rejected")
		}
	}
	p.Close()
	if st := p.Stats(); st.Sent != uint64(len(profs)) {
		t.Fatalf("pusher stats: %+v", st)
	}
	if got := srv.st.Stats().Ingested; got != uint64(len(profs)) {
		t.Fatalf("daemon ingested %d, want %d", got, len(profs))
	}

	jsonView, binView := view(curl.URL), view(pushed.URL)
	if !bytes.Equal(jsonView, binView) {
		t.Fatalf("merged views diverge by encoding:\njson:   %s\nbinary: %s", jsonView, binView)
	}
}
