package daemon

import (
	"bytes"
	"net/http"

	"repro/internal/fault"
)

// chaosHandler is the daemon-side network-fault seam behind
// NodeConfig.Chaos: it wraps a handler and injects the two failure
// classes that can only be simulated after the server has committed
// work.
//
//   - fault.LostAck: the request is processed fully (journaled, merged,
//     dedup-marked) and then the connection is torn down without a
//     response — the client sees a network error for a batch the daemon
//     accepted. This is THE failure exactly-once delivery exists for:
//     a correct client must retry, and a correct daemon must re-ack
//     that retry without re-merging.
//   - fault.RespCorrupt: the request is processed fully, then the real
//     response is replaced with a garbled 502 — the client's retry
//     path, again absorbed by dedup.
//
// Only mutating requests (POST) are chaos-eligible; reads pass through
// untouched so a harness can interrogate the daemon's state through the
// same handler it is torturing.
func chaosHandler(inner http.Handler, inj *fault.Injector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			inner.ServeHTTP(w, r)
			return
		}
		lost := inj.Should(fault.LostAck)
		corrupt := !lost && inj.Should(fault.RespCorrupt)
		if !lost && !corrupt {
			inner.ServeHTTP(w, r)
			return
		}
		// The inner handler must run to completion against a buffered
		// writer — the whole point is that the work commits and only the
		// response is destroyed.
		rec := &discardResponse{hdr: make(http.Header)}
		inner.ServeHTTP(rec, r)
		if lost {
			// ErrAbortHandler makes net/http drop the connection without
			// writing anything — from the client this is a mid-response
			// disconnect after a successful commit.
			panic(http.ErrAbortHandler)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte("\x00\xff witchd chaos: response corrupted in flight \xff\x00"))
	})
}

// discardResponse swallows the inner handler's response so chaos can
// replace it after the handler commits.
type discardResponse struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (d *discardResponse) Header() http.Header { return d.hdr }

func (d *discardResponse) WriteHeader(status int) { d.status = status }

func (d *discardResponse) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return d.body.Write(p)
}
