package daemon

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"
)

// startHardened serves a node through Node.Serve (the hardened server)
// on a loopback listener and returns its address.
func startHardened(t *testing.T, readHeaderTimeout time.Duration) string {
	t.Helper()
	node, err := OpenNode(NodeConfig{ReadHeaderTimeout: readHeaderTimeout})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go node.Serve(ln)
	t.Cleanup(node.Kill)
	return ln.Addr().String()
}

// TestHardenedServerDisconnectsSlowLoris is the satellite for the
// header-timeout hardening: a client that trickles its request header
// and never finishes must be disconnected once ReadHeaderTimeout
// expires, instead of pinning a connection (and, under MaxInflight, an
// admission slot) forever.
func TestHardenedServerDisconnectsSlowLoris(t *testing.T) {
	addr := startHardened(t, 150*time.Millisecond)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Drip the request one header fragment at a time, never sending the
	// terminating blank line.
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/ingest HTTP/1.1\r\n")
	deadline := time.Now().Add(5 * time.Second)
	disconnected := false
	for i := 0; time.Now().Before(deadline); i++ {
		if _, err := fmt.Fprintf(conn, "X-Drip-%d: v\r\n", i); err != nil {
			disconnected = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !disconnected {
		// The write path may buffer past the reset; a read observes it.
		conn.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("slow-loris connection still alive after 5s against a 150ms header timeout")
		}
	}
	if lived := time.Since(start); lived > 3*time.Second {
		t.Fatalf("slow-loris connection survived %v, want disconnect shortly after the 150ms header timeout", lived)
	}

	// The server is still healthy for well-formed clients afterwards.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fmt.Fprintf(conn2, "GET /healthz HTTP/1.1\r\nHost: witchd\r\n\r\n")
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn2), nil)
	if err != nil {
		t.Fatalf("healthz after slow-loris: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after slow-loris: %d", resp.StatusCode)
	}
}

// TestHardenedServerDefaults pins the hardening knobs so a refactor
// cannot silently drop them back to net/http's unlimited defaults.
func TestHardenedServerDefaults(t *testing.T) {
	hs := hardenedServer(http.NotFoundHandler(), 0)
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatal("zero readHeaderTimeout must fall back to a positive default")
	}
	if hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 || hs.MaxHeaderBytes <= 0 {
		t.Fatalf("hardening knobs unset: read=%v idle=%v maxHeader=%d",
			hs.ReadTimeout, hs.IdleTimeout, hs.MaxHeaderBytes)
	}
}
