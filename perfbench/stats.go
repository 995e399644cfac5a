package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory and writes them out when the run ends.
// A nil *spanLog records nothing, which is how untraced runs skip it.
type spanLog struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// record stores a finished span and returns its ID.
func (l *spanLog) record(name string, parent int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	id := l.next.Add(1)
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
	l.mu.Unlock()
	return id
}

// write saves the spans as JSON beside the run's other files.
func (l *spanLog) write(cfg config, workload string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	dir := filepath.Join(filepath.Dir(cfg.work), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, cfg.seed))
	body, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(l.spans), path)
	return os.WriteFile(path, body, 0o644)
}
