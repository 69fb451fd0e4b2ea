package main

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// server is one mpdp-serve process listening on loopback.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	done   chan struct{}
	once   sync.Once
}

// startServer execs the binary on a free loopback port and waits until it
// is healthy: its first accepted TCP connection followed by a 200 from
// /v1/healthz. A refused dial returns at once, so polling it every 100 µs
// costs the starting server little and the figure tracks its own
// start-up. It returns the time from exec to healthy.
func startServer(bin string, args []string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("reserving a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	s := &server{base: "http://" + addr, stderr: &bytes.Buffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-http", addr}, args...)...)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.stderr
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.cmd.Wait()
		close(s.done)
	}()
	cl := &http.Client{Timeout: time.Second}
	defer cl.CloseIdleConnections()
	for {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("server exited before becoming healthy: %s", s.stderr.String())
		default:
		}
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			resp, err := cl.Get(s.base + "/v1/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, time.Since(start), nil
				}
			}
		}
		if time.Since(start) > 20*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("server not healthy after 20s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop shuts the server down gracefully and waits for it to exit. It is
// safe to call more than once.
func (s *server) stop() {
	s.once.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// peakRSSMB reads the server's VmHWM.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// client sends requests over at most conns keep-alive connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		TLSNextProto:        map[string]func(string, *tls.Conn) http.RoundTripper{},
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// sample is the outcome of one request. Offsets are from the run start.
type sample struct {
	status   int
	err      error
	sched    time.Duration // when it was due
	ready    time.Duration // when a worker was free to send it (open loop)
	sent     time.Duration // when it was handed to the transport
	done     time.Duration // when its body was read
	connWait time.Duration // httptrace GetConn→GotConn (traced sends only)
	resp     *httpapi.Response
	traced   bool
}

// latency is the time from when the request was due to its answer.
func (s *sample) latency() time.Duration { return s.done - s.sched }

// rtt is the round trip from the actual send.
func (s *sample) rtt() time.Duration { return s.done - s.sent }

// queued is how long a due request waited for a free connection or for
// the write before it: the server's pace, and part of its latency.
func (s *sample) queued() time.Duration { return max(s.sched, s.ready) - s.sched }

// late is how long after it could have been sent the generator sent it:
// the harness's own lateness (sleep overshoot, scheduling).
func (s *sample) late() time.Duration { return s.sent - max(s.sched, s.ready) }

// send performs one request at offset now from start.
func (c *client) send(r *request, start time.Time, traced bool, smp *sample) {
	path := "/v1/optimize"
	if r.kind == kindUpdate {
		path = "/v1/catalog/stats"
	}
	if traced {
		path += "?trace=1"
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(r.body))
	if err != nil {
		smp.err = err
		return
	}
	if r.kind != kindSQL {
		req.Header.Set("Content-Type", "application/json")
	} else {
		req.Header.Set("Content-Type", "text/plain")
	}
	var getConn time.Time
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GetConn: func(string) { getConn = time.Now() },
			GotConn: func(httptrace.GotConnInfo) { smp.connWait = time.Since(getConn) },
		}))
	}
	smp.traced = traced
	smp.sent = time.Since(start)
	resp, err := c.http.Do(req)
	if err != nil {
		smp.err = err
		smp.done = time.Since(start)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	smp.done = time.Since(start)
	smp.status = resp.StatusCode
	if err != nil {
		smp.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		smp.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	if r.kind == kindUpdate {
		var u httpapi.CatalogStatsResponse
		smp.err = json.Unmarshal(body, &u)
		return
	}
	smp.resp = &httpapi.Response{}
	smp.err = json.Unmarshal(body, smp.resp)
}

// runOpen offers reqs open loop: request i is due at at[i] and is sent by
// the first of conns workers that is free. Latency counts from the due
// time, so a stall delays (and is charged to) every later request. The
// gap between due and sent splits into the wait for a free worker or an
// earlier write (queued) and the generator's own lateness (late).
// Statistics writes are sent strictly in schedule order.
func (c *client) runOpen(reqs []*request, at []time.Duration, conns int, traced func(int) bool) []sample {
	out := make([]sample, len(reqs))
	updDone := updateChain(reqs)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i].sched, out[i].ready = at[i], time.Since(start)
				if d := at[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				c.sendOrdered(reqs, i, updDone, start, traced != nil && traced(i), &out[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed sends reqs back to back from conns workers until the list
// runs out or, once d has run out (d ≤ 0: no time limit), the next request
// starts a new round of round requests (round ≤ 1: any request). It
// returns the samples of the requests sent and the time it took. It sends
// no statistics writes in order; those go through runOpen.
func (c *client) runClosed(reqs []*request, conns, round int, d time.Duration, traced func(int) bool) ([]sample, time.Duration) {
	round = max(round, 1)
	out := make([]sample, len(reqs))
	var mu sync.Mutex
	next := 0
	start := time.Now()
	// claim hands out the next index, or -1 once the run is over; at a
	// round boundary past d every later claim sees the same and stops.
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(reqs) || (d > 0 && next%round == 0 && time.Since(start) >= d) {
			return -1
		}
		next++
		return next - 1
	}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				out[i].sched = time.Since(start)
				c.send(reqs[i], start, traced != nil && traced(i), &out[i])
			}
		}()
	}
	wg.Wait()
	return out[:next], time.Since(start)
}

// updateChain gives every update request a channel closed when it has
// completed, so the next update waits for it: the server then applies
// writes in schedule order and epoch k is the schema after k writes.
func updateChain(reqs []*request) map[int]chan struct{} {
	m := map[int]chan struct{}{}
	for i, r := range reqs {
		if r.kind == kindUpdate {
			m[i] = make(chan struct{})
		}
	}
	return m
}

func (c *client) sendOrdered(reqs []*request, i int, updDone map[int]chan struct{}, start time.Time, traced bool, smp *sample) {
	r := reqs[i]
	if r.kind != kindUpdate {
		c.send(r, start, traced, smp)
		return
	}
	for j := i - 1; j >= 0; j-- {
		if ch, ok := updDone[j]; ok {
			<-ch
			break
		}
	}
	smp.ready = max(smp.ready, time.Since(start))
	c.send(r, start, traced, smp)
	close(updDone[i])
}

// stats reads GET /v1/stats.
func (c *client) stats() (service.Snapshot, error) {
	var s service.Snapshot
	resp, err := c.http.Get(c.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// histBuckets reads one unlabelled histogram family from GET /metrics as
// cumulative (upper bound in seconds, count) pairs.
func (c *client) histBuckets(family string) ([][2]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out [][2]float64
	sc := bufio.NewScanner(resp.Body)
	prefix := family + `_bucket{le="`
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		le, rest, ok := strings.Cut(line, `"} `)
		if !ok {
			continue
		}
		bound := 1e300
		if le != "+Inf" {
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return nil, err
			}
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, [2]float64{bound, n})
	}
	return out, sc.Err()
}

// bucketQuantile is the upper bound of the bucket holding quantile q of
// the difference of two cumulative bucket scrapes (0 when empty).
func bucketQuantile(before, after [][2]float64, q float64) float64 {
	if len(after) == 0 {
		return 0
	}
	delta := make([]float64, len(after))
	for i := range after {
		delta[i] = after[i][1]
		if i < len(before) {
			delta[i] -= before[i][1]
		}
	}
	total := delta[len(delta)-1]
	if total <= 0 {
		return 0
	}
	for i, n := range delta {
		if n >= q*total {
			if after[i][0] >= 1e300 && i > 0 {
				return after[i-1][0]
			}
			return after[i][0]
		}
	}
	return after[len(after)-1][0]
}
