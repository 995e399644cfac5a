package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/witch"
)

// node is one witchd child process, reached only over HTTP.
type node struct {
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// freeAddrs returns n distinct loopback addresses nothing listens on
// right now. All n listeners stay open until the last is taken, or the
// kernel could hand out one port twice.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startNode launches witchd with its default flags plus the listen
// address, the data dir (when dataDir is set) and extra.
//
// A node with a data dir also gets -fsync off. The benchmark may write
// only inside its checkout, which sits on a real disk, and device flush
// jitter there swamps every latency the service adds (see NOTES.md).
// With -fsync off the journal still appends every batch before the ack,
// to the page cache, which is what fsync=always costs on tmpfs.
func startNode(cfg config, addr, dataDir, logName string, extra ...string) (*node, error) {
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "off")
	}
	args = append(args, extra...)
	logf, err := os.Create(filepath.Join(cfg.work, logName+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.witchd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the node if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting witchd: %w", err)
	}
	n := &node{url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(n.done)
	}()
	return n, nil
}

// waitReady polls /healthz until the node reports state "serving".
func (n *node) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-n.done:
			return fmt.Errorf("witchd %s exited during start (see %s)", n.url, n.log.Name())
		default:
		}
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if bytes.Contains(body, []byte(`"state":"serving"`)) {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("witchd %s not serving after 30s", n.url)
}

// stop drains the node with SIGTERM and waits for it to exit, killing it
// if the drain hangs.
func (n *node) stop() error {
	defer n.log.Close()
	select {
	case <-n.done:
		return fmt.Errorf("witchd %s had already exited (see %s)", n.url, n.log.Name())
	default:
	}
	n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
	case <-time.After(20 * time.Second):
		n.cmd.Process.Kill()
		<-n.done
		return fmt.Errorf("witchd %s did not drain within 20s", n.url)
	}
	if !n.cmd.ProcessState.Success() {
		return fmt.Errorf("witchd %s exited with %v (see %s)", n.url, n.cmd.ProcessState, n.log.Name())
	}
	return nil
}

// stopAll stops every node and reports the first error.
func stopAll(nodes []*node) error {
	var first error
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// cpu is the process's user+system CPU so far, from /proc/<pid>/stat.
func (n *node) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// status reads one "kB" field of the process's /proc status in bytes.
func (n *node) status(field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sumStatus sums a /proc status field over the nodes, in MB.
func sumStatus(nodes []*node, field string) (float64, error) {
	var sum float64
	for _, n := range nodes {
		b, err := n.status(field)
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum / 1e6, nil
}

// rssSampler records the nodes' summed resident memory (VmRSS) every
// 100ms. Go's heap grows and shrinks with collection timing, so a single
// reading, or the peak (VmHWM), differs from run to run by a third; the
// median over a run repeats.
type rssSampler struct {
	nodes      []*node
	stop, done chan struct{}
	vals       []float64
	err        error
}

func sampleRSS(nodes []*node) *rssSampler {
	s := &rssSampler{nodes: nodes, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := sumStatus(nodes, "VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.vals = append(s.vals, mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and fills mem_mb with the median summed RSS and
// daemon.peak_rss_mb with the summed peak RSS so far (VmHWM), in MB.
func (s *rssSampler) finish(v map[string]float64) error {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return s.err
	}
	v["mem_mb"] = percentile(s.vals, 0.5)
	var err error
	v["daemon.peak_rss_mb"], err = sumStatus(s.nodes, "VmHWM")
	return err
}

// written sums the bytes the nodes have caused to be written to storage
// so far (write_bytes in /proc/<pid>/io): journal appends, snapshots and
// log lines, counted as page-cache pages are dirtied, so appends to a
// page already dirty are not counted again. Socket writes are not in it.
// The data dir's size cannot stand in, since snapshots delete the
// journal they cover.
func written(nodes []*node) (float64, error) {
	var total float64
	for _, n := range nodes {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return 0, err
				}
				total += v
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no write_bytes in /proc/%d/io", n.cmd.Process.Pid)
		}
	}
	return total, nil
}

// scrape reads a node's /metrics into series name (with labels) → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// metricsDiff is the change of every scraped series over a window,
// summed over nodes. Reading a series the last scrape did not have, or a
// stage with no observations, records it as missing: a renamed series
// must fail the run, not read as 0.
type metricsDiff struct {
	d       map[string]float64
	missing map[string]bool
}

func diffScrapes(before, after []map[string]float64) *metricsDiff {
	d := &metricsDiff{d: map[string]float64{}, missing: map[string]bool{}}
	for i := range after {
		for k, v := range after[i] {
			d.d[k] += v - before[i][k]
		}
	}
	return d
}

// get is one series' change.
func (d *metricsDiff) get(series string) float64 {
	v, ok := d.d[series]
	if !ok {
		d.missing[series] = true
	}
	return v
}

// err lists every series read but missing.
func (d *metricsDiff) err() error {
	if len(d.missing) == 0 {
		return nil
	}
	var names []string
	for k := range d.missing {
		names = append(names, k)
	}
	sort.Strings(names)
	return fmt.Errorf("/metrics lacks %s", strings.Join(names, ", "))
}

func scrapeAll(nodes []*node) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, n := range nodes {
		m, err := scrape(n.url)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// observed runs fn and returns how the nodes' /metrics changed and how
// many bytes they wrote to storage meanwhile.
func observed(nodes []*node, fn func() error) (*metricsDiff, float64, error) {
	before, err := scrapeAll(nodes)
	if err != nil {
		return nil, 0, err
	}
	w0, err := written(nodes)
	if err != nil {
		return nil, 0, err
	}
	if err := fn(); err != nil {
		return nil, 0, err
	}
	after, err := scrapeAll(nodes)
	if err != nil {
		return nil, 0, err
	}
	w1, err := written(nodes)
	return diffScrapes(before, after), w1 - w0, err
}

// stageMs is a stage's mean busy time per observation in ms.
func (d *metricsDiff) stageMs(stage string) float64 {
	sel := `{stage="` + stage + `"}`
	n := d.get("witchd_stage_duration_seconds_count" + sel)
	sum := d.get("witchd_stage_duration_seconds_sum" + sel)
	if n == 0 {
		d.missing["observations of stage "+stage] = true
		return 0
	}
	return sum / n * 1e3
}

// familyMeanMs is the mean of a histogram family over every label set.
func (d *metricsDiff) familyMeanMs(family string) float64 {
	var sum, count float64
	for k, v := range d.d {
		if strings.HasPrefix(k, family+"_sum") {
			sum += v
		} else if strings.HasPrefix(k, family+"_count") {
			count += v
		}
	}
	if count == 0 {
		d.missing["observations of "+family] = true
		return 0
	}
	return sum / count * 1e3
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// batchKey is a Pusher batch's idempotency key.
type batchKey struct {
	pusher string
	seq    uint64
}

// batch is one scheduled Push: when it was due, which pre-generated
// profile it carried, and what became of it.
type batch struct {
	profile   int
	sched     time.Time
	pushed    time.Time
	firstTry  time.Time
	acked     time.Time
	attempts  int
	non2xx    int
	transport int
	dropped   bool
	span      int64
}

// tracker follows every batch from schedule to ack. The pushers'
// shared RoundTripper reports each attempt by idempotency key.
type tracker struct {
	mu      sync.Mutex
	byKey   map[batchKey]*batch
	seqs    map[string]uint64 // pusher ID → sequences issued
	attempt []float64         // every attempt's round trip in ms
	spans   *spanLog
}

func newTracker(spans *spanLog) *tracker {
	return &tracker{byKey: map[batchKey]*batch{}, seqs: map[string]uint64{}, spans: spans}
}

// timingTransport times every ingest attempt and matches it to its batch.
type timingTransport struct {
	base http.RoundTripper
	t    *tracker
}

func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	seq, _ := strconv.ParseUint(req.Header.Get(witch.PusherSeqHeader), 10, 64)
	key := batchKey{req.Header.Get(witch.PusherIDHeader), seq}
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	end := time.Now()
	t := tt.t
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.byKey[key]
	if b == nil {
		return resp, err // setup traffic
	}
	t.attempt = append(t.attempt, ms(end.Sub(start)))
	if b.attempts == 0 {
		b.firstTry = start
	}
	b.attempts++
	t.spans.record("http.attempt", b.span, start, end)
	switch {
	case err != nil:
		b.transport++
	case resp.StatusCode/100 != 2:
		b.non2xx++
	case b.acked.IsZero():
		b.acked = end
	}
	return resp, err
}

// newPushers creates n default-option Pushers whose entry nodes rotate
// over urls and which share one connection pool of conns() connections
// per node through the timing transport.
func newPushers(n int, urls []string, t *tracker) ([]*witch.Pusher, error) {
	base := &http.Transport{MaxConnsPerHost: conns(), MaxIdleConnsPerHost: conns(), IdleConnTimeout: time.Minute}
	client := &http.Client{Transport: &timingTransport{base: base, t: t}, Timeout: 2 * time.Second}
	var ps []*witch.Pusher
	for i := 0; i < n; i++ {
		var rest []string
		for j := 1; j < len(urls); j++ {
			rest = append(rest, urls[(i+j)%len(urls)])
		}
		p, err := witch.NewPusher(witch.PusherOptions{URL: urls[i%len(urls)], URLs: rest, Client: client})
		if err != nil {
			closePushers(ps)
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

func closePushers(ps []*witch.Pusher) {
	for _, p := range ps {
		p.Close()
	}
}

// openLoop calls fire for every slot of a fixed-rate schedule from start
// until end, never waiting for earlier calls: the schedule does not slow
// when the system does. It returns how late each slot fired, in ms.
func openLoop(start, end time.Time, rate float64, fire func(k int, sched time.Time)) []float64 {
	var late []float64
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; ; k++ {
		sched := start.Add(time.Duration(k) * interval)
		if !sched.Before(end) {
			return late
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(sched)))
		fire(k, sched)
	}
}

// post sends body to url and returns the response body, failing on any
// status but 200.
func post(url string, body []byte) ([]byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func get(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// oracleCheck feeds a fresh memory-only witchd exactly the given profile
// bodies, then compares /v1/profile for every (tool, program) from every
// node under test byte for byte against it. It returns the number of
// comparisons made and reports each mismatch through out.
func oracleCheck(cfg config, nodes []*node, bodies [][]byte, views [][2]string, out *outcome) (int64, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return 0, err
	}
	oracle, err := startNode(cfg, addrs[0], "", "oracle")
	if err != nil {
		return 0, err
	}
	defer oracle.stop()
	if err := oracle.waitReady(); err != nil {
		return 0, err
	}
	// Concatenated JSON documents: one ingest request merges them all.
	var chunk bytes.Buffer
	flush := func() error {
		if chunk.Len() == 0 {
			return nil
		}
		_, err := post(oracle.url+"/v1/ingest", chunk.Bytes())
		chunk.Reset()
		return err
	}
	for _, b := range bodies {
		chunk.Write(b)
		if chunk.Len() > 4<<20 {
			if err := flush(); err != nil {
				return 0, fmt.Errorf("feeding oracle: %w", err)
			}
		}
	}
	if err := flush(); err != nil {
		return 0, fmt.Errorf("feeding oracle: %w", err)
	}
	var checks int64
	for _, v := range views {
		q := "/v1/profile?tool=" + v[0] + "&program=" + v[1]
		code, want, err := get(oracle.url + q)
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("oracle %s: %d %v", q, code, err)
		}
		for _, n := range nodes {
			checks++
			code, got, err := get(n.url + q)
			switch {
			case err != nil:
				out.fail("%s%s: %v", n.url, q, err)
			case code != http.StatusOK:
				out.fail("%s%s: status %d", n.url, q, code)
			case !bytes.Equal(got, want):
				out.fail("%s%s differs from the oracle fed the acked batches (%d vs %d bytes; both kept in %s)",
					n.url, q, len(got), len(want), keepMismatch(cfg, q, got, want))
			}
		}
	}
	return checks, nil
}

// keepMismatch saves a node's answer and the oracle's beside the run's
// other outputs, which outlive the run, and returns the directory.
func keepMismatch(cfg config, query string, got, want []byte) string {
	dir := filepath.Join(filepath.Dir(cfg.work), "mismatch", filepath.Base(cfg.work))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err.Error()
	}
	name := strings.NewReplacer("/", "_", "?", "_", "&", "_", "=", "_").Replace(query)
	os.WriteFile(filepath.Join(dir, name+".got.json"), got, 0o644)
	os.WriteFile(filepath.Join(dir, name+".want.json"), want, 0o644)
	return dir
}

// quantize rounds every pair's waste and use to whole numbers and
// rebuilds the totals from them. Sums of whole numbers are exact in any
// order, so a merged profile cannot depend on which node folded which
// batch first, and the byte-for-byte oracle comparison stays meaningful.
func quantize(p *witch.Profile) *witch.Profile {
	meta := *p
	meta.Waste, meta.Use = 0, 0
	var pairs []witch.Pair
	for _, pr := range p.TopPairs(0) {
		pr.Waste, pr.Use = float64(int64(pr.Waste+0.5)), float64(int64(pr.Use+0.5))
		meta.Waste += pr.Waste
		meta.Use += pr.Use
		pairs = append(pairs, pr)
	}
	meta.Redundancy = 0
	if meta.Waste+meta.Use > 0 {
		meta.Redundancy = meta.Waste / (meta.Waste + meta.Use)
	}
	return witch.NewProfile(meta, pairs)
}

// encode renders a profile as the JSON document a default Pusher sends.
func encode(p *witch.Profile) ([]byte, error) {
	var buf bytes.Buffer
	err := p.WriteJSONCompact(&buf)
	return buf.Bytes(), err
}
