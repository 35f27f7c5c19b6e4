package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one benchmark call into a layer. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// newID reserves a span ID before the call, so a client can hand it to
// the server as the parent of the server's span.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span that needs no pre-reserved ID and returns its ID.
func (t *tracer) add(parent, req uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.newID()
	t.record(id, parent, req, name, start, end)
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span with at least one child, its
// duration minus the durations of its children. A child is either
// nested inside its parent (the server span inside a client round trip)
// or a replay of the parent's rows through the layer below (the
// Model.ClassifyFlat reference of a ServeHTTP call).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	self := make(map[uint64]int64, len(children))
	for _, s := range spans {
		if c, ok := children[s.ID]; ok {
			self[s.ID] = s.dur() - c
		}
	}
	return self
}

// selfMedianUS is the median self time, in microseconds, of the spans
// named name that have children.
func selfMedianUS(spans []span, self map[uint64]int64, name string) float64 {
	var v []float64
	for _, s := range spans {
		if c, ok := self[s.ID]; ok && s.Name == name {
			v = append(v, float64(c)/1e3)
		}
	}
	return median(v)
}

// durMedianUS is the median duration, in microseconds, of spans named name.
func durMedianUS(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.dur())/1e3)
		}
	}
	return median(v)
}

// writeSpans writes one JSON object per line to dir/<name>.jsonl.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// Headers that carry a client span's identity to the server span.
const (
	headerSpan = "X-Bench-Span"
	headerReq  = "X-Bench-Req"
)

// tracedHandler records a span around server.Server.ServeHTTP for every
// request that carries a client span ID. It is installed only in traced
// runs.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.ParseUint(r.Header.Get(headerSpan), 10, 64)
	if err != nil {
		t.h.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseUint(r.Header.Get(headerReq), 10, 64) // 0 when absent
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.tr.add(parent, req, "server.ServeHTTP", start, time.Now())
}

func setSpanHeaders(h http.Header, id, req uint64) {
	h.Set(headerSpan, strconv.FormatUint(id, 10))
	h.Set(headerReq, strconv.FormatUint(req, 10))
}
