package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tkdc/internal/core"
)

// client is the benchmark's load generator: one http.Client with at
// most conns connections to the server under test.
type client struct {
	hc   *http.Client
	url  string
	tr   *tracer
	reqs atomic.Uint64
}

func newClient(url string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: t, Timeout: time.Minute}, url: url, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends a CSV body and decodes the JSON answer into out. A traced
// post records a "client<path>" span around the round trip and passes
// its ID to the server, whose span becomes its child.
func (c *client) post(path string, body []byte, traced bool, out any) error {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	traced = traced && c.tr != nil
	var id, rq uint64
	if traced {
		id, rq = c.tr.newID(), c.reqs.Add(1)
		setSpanHeaders(req.Header, id, rq)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		c.tr.record(id, 0, rq, "client"+path, start, time.Now())
	}
	if err != nil {
		return fmt.Errorf("%s: read answer: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// classifyReply is the label-mode /classify answer.
type classifyReply struct {
	Labels     []string `json:"labels"`
	Generation uint64   `json:"generation"`
}

// mask packs a request's labels into a bit set, HIGH as 1. Requests
// carry at most 64 rows.
func (r *classifyReply) mask() (uint64, error) {
	var m uint64
	for i, l := range r.Labels {
		switch l {
		case "HIGH":
			m |= 1 << i
		case "LOW":
		default:
			return 0, fmt.Errorf("unknown label %q", l)
		}
	}
	return m, nil
}

func maskOf(labels []core.Label) uint64 {
	var m uint64
	for i, l := range labels {
		if l == core.High {
			m |= 1 << i
		}
	}
	return m
}

// verifier judges one /classify answer for the request built from
// queries[i]; it returns false when the labels are wrong.
type verifier func(i int, rep *classifyReply) bool

// sliceLen is the length of the alternating untraced and traced slices
// of a traced run's closed loop; the rows each kind completes give the
// tracing overhead.
const sliceLen = 250 * time.Millisecond

// tracedAt reports whether a request started at offset t into a sliced
// phase falls in a traced slice (the odd ones).
func tracedAt(t time.Duration) bool { return (t/sliceLen)%2 == 1 }

// slicedTime splits a phase of length d into its untraced and traced time.
func slicedTime(d time.Duration) (untraced, traced time.Duration) {
	pairs, rem := d/(2*sliceLen), d%(2*sliceLen)
	untraced = pairs*sliceLen + min(rem, sliceLen)
	traced = pairs*sliceLen + max(0, rem-sliceLen)
	return untraced, traced
}

// loopResult is what a closed or open loop measured.
type loopResult struct {
	attempted, failed int64
	rows              int64
	elapsed           time.Duration
	latMS             []float64 // +Inf for a failed request
	atMS              []float64 // when each request started (closed) or was due (open), from the loop's start
	waitMS            []float64 // open loop: due until sent
	slicedRows        [2]int64  // rows completed in untraced / traced slices
	firstErr          error
}

func (r *loopResult) merge(o *loopResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.rows += o.rows
	r.latMS = append(r.latMS, o.latMS...)
	r.atMS = append(r.atMS, o.atMS...)
	r.waitMS = append(r.waitMS, o.waitMS...)
	r.slicedRows[0] += o.slicedRows[0]
	r.slicedRows[1] += o.slicedRows[1]
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// classifyOnce posts queries[i] and judges the answer.
func classifyOnce(c *client, queries []batch, i int, traced bool, verify verifier) error {
	var rep classifyReply
	if err := c.post("/classify", queries[i].csv, traced, &rep); err != nil {
		return err
	}
	if len(rep.Labels) != queries[i].n {
		return fmt.Errorf("/classify: %d labels for %d rows", len(rep.Labels), queries[i].n)
	}
	if !verify(i, &rep) {
		return fmt.Errorf("/classify: labels of request %d differ from Classifier.ClassifyFlat at generation %d", i, rep.Generation)
	}
	return nil
}

// closedLoop runs workers clients, each sending its next /classify as
// soon as the previous one is answered, until d has passed. With sliced
// set, requests in odd sliceLen slices are traced.
func closedLoop(c *client, queries []batch, workers int, d time.Duration, sliced bool, verify verifier) loopResult {
	var (
		mu  sync.Mutex
		all loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r loopResult
			for i := w * len(queries) / workers; ; i++ {
				t0 := time.Now()
				if !t0.Before(end) {
					break
				}
				k := i % len(queries)
				traced := sliced && tracedAt(t0.Sub(start))
				err := classifyOnce(c, queries, k, traced, verify)
				r.attempted++
				r.atMS = append(r.atMS, ms(t0.Sub(start)))
				if err != nil {
					r.failed++
					r.latMS = append(r.latMS, math.Inf(1))
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.latMS = append(r.latMS, ms(time.Since(t0)))
				r.rows += int64(queries[k].n)
				if traced {
					r.slicedRows[1] += int64(queries[k].n)
				} else {
					r.slicedRows[0] += int64(queries[k].n)
				}
			}
			mu.Lock()
			all.merge(&r)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	all.elapsed = time.Since(start)
	return all
}

// openLoop sends /classify requests on a fixed schedule, rate per
// second for d, over at most workers connections. A request is due at
// start + i/rate whether or not earlier ones have been answered; its
// latency runs from when it was due, so a stall also delays every
// request queued behind it, and its wait is the time from due until
// sent. latMS and waitMS are in schedule order.
func openLoop(c *client, queries []batch, workers int, rate float64, d time.Duration, traced bool, verify verifier) loopResult {
	var (
		mu   sync.Mutex
		all  loopResult
		wg   sync.WaitGroup
		next atomic.Int64
	)
	total := int64(rate * d.Seconds())
	// Each worker writes only the indices it took; all gets the slices
	// once every worker is done.
	lat := make([]float64, total)
	wait := make([]float64, total)
	at := make([]float64, total)
	interval := float64(time.Second) / rate
	for i := range at {
		at[i] = float64(i) * interval / float64(time.Millisecond)
	}
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r loopResult
			for {
				i := next.Add(1) - 1
				if i >= total {
					break
				}
				due := start.Add(time.Duration(float64(i) * interval))
				sendAt(due)
				sent := time.Now()
				k := int(i) % len(queries)
				err := classifyOnce(c, queries, k, traced, verify)
				r.attempted++
				wait[i] = ms(sent.Sub(due))
				if err != nil {
					r.failed++
					lat[i] = math.Inf(1)
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				lat[i] = ms(time.Since(due))
				r.rows += int64(queries[k].n)
			}
			mu.Lock()
			all.merge(&r)
			mu.Unlock()
		}()
	}
	wg.Wait()
	all.latMS, all.waitMS, all.atMS = lat, wait, at
	all.elapsed = time.Since(start)
	return all
}

// sleepLead is how long before a request is due the open loop stops
// sleeping on a Go timer. A Go timer can fire up to a millisecond late
// when the process is idle, which would add the generator's own
// lateness to every latency; the rest of the wait is a kernel sleep
// (sleepPrecise), which wakes within tens of microseconds. Yielding
// with runtime.Gosched instead keeps every processor busy, so network
// readiness is polled late: on a 2-vCPU virtual machine the p99 of
// serve-grid-2d rose from ~1.4 to ~4.3 ms.
const sleepLead = time.Millisecond

// sendAt returns at due.
func sendAt(due time.Time) {
	if d := time.Until(due) - sleepLead; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(due); d > 0; d = time.Until(due) {
		sleepPrecise(d)
	}
}

// Latency windows: a phase of d is cut into equal windows of at least
// minWindow and at least minWindowRequests requests (one window if the
// phase is shorter), and p50 and p99 are taken per window.
const (
	minWindow         = 250 * time.Millisecond
	minWindowRequests = 150
)

// windowQuantiles returns the p50 and p99 of each latency window of a
// phase of length d; at holds when each request started or was due.
func windowQuantiles(lat, at []float64, d time.Duration) (p50s, p99s []float64) {
	if len(lat) == 0 {
		return nil, nil
	}
	span := ms(d)
	win := max(ms(minWindow), span*minWindowRequests/float64(len(lat)))
	k := max(1, int(span/win))
	groups := make([][]float64, k)
	for i, l := range lat {
		j := min(k-1, max(0, int(at[i]/(span/float64(k)))))
		groups[j] = append(groups[j], l)
	}
	for _, g := range groups {
		if len(g) > 0 {
			p50s = append(p50s, quantile(g, 0.5))
			p99s = append(p99s, quantile(g, 0.99))
		}
	}
	return p50s, p99s
}

// httpServer serves h on a loopback port until stop.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan error
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection, and waits for Serve
// to return.
func (s *httpServer) stop() {
	s.srv.Close()
	<-s.done
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of v; 0 for an empty slice.
func median(v []float64) float64 { return quantile(v, 0.5) }

// midMean is the mean of the values of v between its first and third
// quartiles: unlike the median it does not jump between the modes of a
// two-mode distribution, and unlike the mean it ignores the slowest and
// fastest quarters, where a shared host's vCPU stalls land.
func midMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (the "inclusive" method); +Inf entries sort last.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}
