package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/fleet"
	"tkdc/internal/server"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// workload is one traffic mix. The sentences in why, loads and bypasses
// are the reasons the workload is in the benchmark; BENCHMARK.json
// carries why.
type workload struct {
	name         string
	why          string
	loads        string
	bypasses     string
	size         size
	rate         float64 // open-loop arrival rate, requests/s (0: no open loop)
	limitMS      float64 // p99 latency limit of the open loop
	bandTolerant bool    // labels may miss the ε·t band with probability δ (sampling backend)
	wantBackend  string
	// rounds is how many times a run sets up and measures. Each round
	// gets an equal share of the measured time, and every end-to-end
	// metric is the median over the rounds' values, so its samples
	// spread over the whole run instead of one stretch of it. Workloads
	// whose set-up is cheap take more rounds.
	rounds int
	run    func(*env) error
}

var workloads = []*workload{
	{
		name:     "serve-grid-2d",
		why:      "32-row /classify over loopback HTTP on gauss d=2 n=100k: grid hits make a row cost under 1us, so HTTP, parse, engine, encode and telemetry do most of the work",
		loads:    "server (HTTP, parse, batch engine, encode), telemetry, grid cache",
		bypasses: "tree traversal does little; no sampling, stream or fleet traffic in the measured phase",
		size:     size{dataset: "gauss", dim: 2, n: 100_000, queries: 4096, ingest: 64, probe: 256, burst: 18},
		rate:     1500, limitMS: 20,
		wantBackend: core.BackendTree,
		rounds:      8,
		run:         runServe,
	},
	{
		name:     "serve-sampling-27d",
		why:      "the same 32-row requests and client on hep d=27 n=10k, where auto picks the sampling backend and near/far estimation is ~99% of a request; request-side changes should not show here",
		loads:    "estimator (near field and far-field sampling rounds)",
		bypasses: "grid (off above d=4) and tree pruning; the request side is ~1% of the time",
		size:     size{dataset: "hep", dim: 27, n: 10_000, queries: 8192, ingest: 32, probe: 128, burst: 5},
		rate:     100, limitMS: 100,
		bandTolerant: true,
		wantBackend:  core.BackendSampling,
		rounds:       4,
		run:          runServe,
	},
	{
		name:        "offline-tree-8d",
		why:         "the paper's own setting through the library, no HTTP, telemetry off: TrainFlat on tmy3 d=8 n=20k, then ClassifyFlat over all n rows (Fig. 7 effective throughput)",
		loads:       "core training (bootstrap, assemble, refine), kdtree build and traversal, kernel",
		bypasses:    "server, telemetry, grid (off above d=4), sampling, stream, fleet",
		size:        size{dataset: "tmy3", dim: 8, n: 20_000, queries: 1024, ingest: 32, probe: 128, burst: 800},
		wantBackend: core.BackendTree,
		rounds:      4,
		run:         runOffline,
	},
	{
		name:        "stream-ingest-2d",
		why:         "writes beside reads: 256-row /ingest with Retrain and Follower.Sync every 100 batches, while a second client posts 32-row /classify; the only workload loading stream merge, retrain and fleet sync",
		loads:       "stream (sharded ingest, merge, retrain, publish), fleet (encode, sync, load), server ingest and classify",
		bypasses:    "sampling backend; open-loop queueing",
		size:        size{dataset: "gauss", dim: 2, n: 100_000, queries: 4096, ingest: 512, probe: 256, drift: 0.002, retrainEvery: 100},
		wantBackend: core.BackendTree,
		rounds:      8,
		run:         runStream,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	measure time.Duration
	trace   bool
	scale   float64 // 1 for the benchmark; tests shrink the inputs
	nproc   int
	outDir  string // where a traced run writes its spans
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// env is one run of one workload.
type env struct {
	w   *workload
	rc  runConfig
	in  *inputs
	tr  *tracer // nil in untraced runs
	out map[string]float64

	attempted, failed int64
	checks            []check
	facts             map[string]any

	samples   map[string][]float64 // end-to-end values, one or more per round
	trains    []core.TrainStats    // every training of the run
	overheads []float64            // traced runs: tracing overhead per round
	ingests   []float64            // rows per second of every ingest batch
	p50s      []float64            // p50 of every latency window
	p99s      []float64            // p99 of every latency window
	phaseP50s []float64            // p50 of every measured phase
	phaseP99s []float64            // p99 of every measured phase

	serverErrors, syncFailures, ingestRejected int64
}

// checkf records one correctness check as one operation.
func (e *env) checkf(name string, ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.failed++
	}
	e.checks = append(e.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// loop folds a load loop's operations into the run's counts.
func (e *env) loop(r *loopResult, what string) {
	e.attempted += r.attempted
	e.failed += r.failed
	e.serverErrors += r.failed
	if r.firstErr != nil {
		e.facts["first_error_"+what] = r.firstErr.Error()
	}
}

func (e *env) set(name string, v float64) { e.out[name] = v }

// keep records one sample of an end-to-end metric.
func (e *env) keep(name string, v float64) { e.samples[name] = append(e.samples[name], v) }

// runRounds runs round once per round of the workload and sets every end-to-end metric to
// the median of its samples. Each round starts from a finished GC cycle,
// so its set-up does not pay for marking the last round's garbage.
func (e *env) runRounds(round func(r int) error) error {
	for r := 0; r < e.w.rounds; r++ {
		runtime.GC()
		if err := round(r); err != nil {
			return err
		}
	}
	for name, v := range e.samples {
		e.set(name, median(v))
	}
	e.set("ingest_rows_per_s", midMean(e.ingests))
	e.set("p50_ms", median(e.p50s))
	e.set("client.latency_ms_p99", median(e.p99s))
	e.facts["latency_windows"] = len(e.p99s)
	e.facts["p50_ms_whole_phase"] = median(e.phaseP50s)
	e.facts["p99_ms_window"] = median(e.p99s)
	e.facts["p99_ms_whole_phase"] = median(e.phaseP99s)
	return nil
}

// keepIngest records one ingest batch of rows accepted in dt.
func (e *env) keepIngest(rows int, dt time.Duration) {
	e.ingests = append(e.ingests, float64(rows)/dt.Seconds())
}

// keepLatency records the latency windows of one phase of length d.
// p50_ms and client.latency_ms_p99 are the medians over the run's
// windows of each window's p50 and p99. On a shared host, vCPU stalls
// of several milliseconds take a few percent of a phase's time, so a
// whole phase's p99 is set by the stalls the phase happened to meet: on
// serve-grid-2d on a 2-vCPU virtual machine, round p99s ranged from 0.5
// to 20 ms in one run. The median over windows reads the p99 of a
// typical quarter second instead; the whole phase's p50 and p99 (median
// over rounds) are in the report.
func (e *env) keepLatency(lat, at []float64, d time.Duration) {
	p50s, p99s := windowQuantiles(lat, at, d)
	e.p50s = append(e.p50s, p50s...)
	e.p99s = append(e.p99s, p99s...)
	e.phaseP50s = append(e.phaseP50s, quantile(lat, 0.5))
	e.phaseP99s = append(e.phaseP99s, quantile(lat, 0.99))
}

// phase is one round's share of the measured time.
func (e *env) phase() time.Duration { return e.rc.measure / time.Duration(e.w.rounds) }

// traceLast reports whether round r is the one whose stack the layer
// probes of a traced run examine.
func (e *env) traceLast(r int) bool { return e.tr != nil && r == e.w.rounds-1 }

// trainSeed is cmd/tkdc's default -seed. Training uses it, not the
// run's seed: the run's seed picks the data, and a bootstrap seed that
// changed with it would add its own spread to every training time.
const trainSeed = 42

// trainConfig is the configuration cmd/tkdc trains with by default:
// paper defaults, workers = nproc, seed 42, and the registry (nil for
// telemetry off).
func (e *env) trainConfig(reg *telemetry.Registry) core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = e.rc.nproc
	cfg.Seed = trainSeed
	if reg != nil {
		cfg.Recorder = reg
	}
	return cfg
}

func (e *env) train(reg *telemetry.Registry) (*core.Classifier, error) {
	clf, err := core.TrainFlat(e.in.train, e.in.dim, e.trainConfig(reg))
	if err != nil {
		return nil, err
	}
	if clf.Backend() != e.w.wantBackend {
		return nil, fmt.Errorf("%s trained the %s backend, want %s", e.w.name, clf.Backend(), e.w.wantBackend)
	}
	return clf, nil
}

// serveStack is a server wired as cmd/tkdc -serve wires it: the
// registry on the classifier and the server, default batch options
// (window 0), listening on loopback.
type serveStack struct {
	srv  *server.Server
	http *httpServer
}

func (e *env) startServe(clf *core.Classifier, reg *telemetry.Registry, opts server.Options) (*serveStack, error) {
	opts.Registry = reg
	srv := server.New(clf, opts)
	var h http.Handler = srv
	if e.tr != nil {
		h = tracedHandler{h: srv, tr: e.tr}
	}
	hs, err := startHTTP(h)
	if err != nil {
		return nil, err
	}
	return &serveStack{srv: srv, http: hs}, nil
}

func (s *serveStack) close() {
	s.http.stop()
	s.srv.Close()
}

// follower is a replica of a leader at url that is synced on demand.
type follower struct {
	f  *fleet.Follower
	hc *http.Client
}

func (e *env) newFollower(url string) (*follower, error) {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
	f, err := fleet.NewFollower(fleet.FollowerConfig{URL: url, Workers: e.rc.nproc, Seed: e.rc.seed, Client: hc})
	if err != nil {
		return nil, err
	}
	return &follower{f: f, hc: hc}, nil
}

func (f *follower) close() {
	f.f.Close()
	f.hc.CloseIdleConnections()
}

// sync runs Follower.Sync and checks that the follower then serves the
// leader's generation gen.
func (e *env) sync(f *follower, gen uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := f.f.Sync(ctx); err != nil {
		e.syncFailures++
		return err
	}
	if got := f.f.Stats().AppliedGeneration; got != gen {
		e.syncFailures++
		return fmt.Errorf("follower serves generation %d after Sync, leader is at %d", got, gen)
	}
	return nil
}

// parity checks that a replica labels the probe rows as its leader does.
func (e *env) parity(name string, replica, leader *core.Classifier) error {
	want, err := leader.ClassifyFlat(e.in.probe, e.in.probeN)
	if err != nil {
		return err
	}
	got, err := replica.ClassifyFlat(e.in.probe, e.in.probeN)
	if err != nil {
		return err
	}
	diff := 0
	for i := range want {
		if got[i] != want[i] {
			diff++
		}
	}
	e.checkf(name, diff == 0, "%d of %d probe labels differ between replica and leader", diff, len(want))
	return nil
}

// expectedMasks labels every query request with Classifier.ClassifyFlat,
// the answer /classify must give at that generation.
func (e *env) expectedMasks(clf *core.Classifier) ([]uint64, error) {
	out := make([]uint64, len(e.in.queries))
	for i, q := range e.in.queries {
		labels, err := clf.ClassifyFlat(q.flat, q.n)
		if err != nil {
			return nil, err
		}
		out[i] = maskOf(labels)
	}
	return out, nil
}

func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// tailStack is the streaming service a non-stream workload's ingest
// burst runs against.
type tailStack struct {
	svc *stream.Service
	srv *server.Server
	st  *serveStack // nil when the burst bypasses HTTP
}

func (t *tailStack) close() {
	if t.st != nil {
		t.st.close()
	} else {
		t.srv.Close()
	}
	t.svc.Close()
}

// ingestBurst measures ingest on a workload that does not stream: a
// streaming service over its model, prefilled like stream-ingest-2d,
// fed the workload's ingest batches over loopback HTTP (overHTTP) or
// through Service.IngestFlat: size.burst passes over the batches, about
// 250 ms on a 2-vCPU Xeon. The amount is fixed, not the time: each
// batch sent lowers the chance that the reservoir keeps a row, and so
// the cost of the next batch, so a burst of fixed time would do cheaper
// work on a faster host. It records every batch with keepIngest.
func (e *env) ingestBurst(clf *core.Classifier, reg *telemetry.Registry, overHTTP bool) (*tailStack, error) {
	cfg := stream.Config{Capacity: e.in.n, Seed: e.rc.seed, Shards: e.rc.nproc, Prefill: true}
	if reg != nil {
		cfg.Recorder = reg
	}
	svc, err := stream.NewService(clf, cfg)
	if err != nil {
		return nil, err
	}
	t := &tailStack{svc: svc}
	opts := server.Options{Registry: reg, Stream: svc}
	if overHTTP {
		if t.st, err = e.startServe(clf, reg, opts); err != nil {
			svc.Close()
			return nil, err
		}
		t.srv = t.st.srv
	} else {
		t.srv = server.New(clf, opts)
	}
	var c *client
	if overHTTP {
		c = newClient(t.st.http.url, 1, nil)
		defer c.close()
	}
	// Start from a finished GC cycle, so the burst does not share the
	// CPU with marking the phase's garbage.
	runtime.GC()
	for pass := 0; pass < e.in.burst; pass++ {
		for _, b := range e.in.ingest {
			accepted := 0
			t0 := time.Now()
			if overHTTP {
				var rep struct {
					Accepted int `json:"accepted"`
				}
				err = c.post("/ingest", b.csv, false, &rep)
				accepted = rep.Accepted
			} else {
				accepted, err = svc.IngestFlat(b.flat, e.in.dim)
			}
			dt := time.Since(t0)
			e.attempted++
			if err != nil || accepted != b.n {
				e.failed++
				e.ingestRejected++
				if err != nil {
					e.facts["first_error_ingest"] = err.Error()
				}
				continue
			}
			e.keepIngest(accepted, dt)
		}
	}
	e.checkf("accepted rows equal rows sent", e.ingestRejected == 0, "%d batches rejected or short", e.ingestRejected)
	return t, nil
}

func counterDelta(a, b core.Counters) core.Counters {
	return core.Counters{
		Queries:        b.Queries - a.Queries,
		GridHits:       b.GridHits - a.GridHits,
		PointKernels:   b.PointKernels - a.PointKernels,
		BoundKernels:   b.BoundKernels - a.BoundKernels,
		NodesVisited:   b.NodesVisited - a.NodesVisited,
		SamplingRounds: b.SamplingRounds - a.SamplingRounds,
		SampledPoints:  b.SampledPoints - a.SampledPoints,
	}
}

func addCounters(a, b core.Counters) core.Counters {
	return core.Counters{
		Queries:        a.Queries + b.Queries,
		GridHits:       a.GridHits + b.GridHits,
		PointKernels:   a.PointKernels + b.PointKernels,
		BoundKernels:   a.BoundKernels + b.BoundKernels,
		NodesVisited:   a.NodesVisited + b.NodesVisited,
		SamplingRounds: a.SamplingRounds + b.SamplingRounds,
		SampledPoints:  a.SampledPoints + b.SampledPoints,
	}
}

// overheadPct compares the rows per second a sliced closed loop
// completed in its untraced and traced slices.
func overheadPct(r *loopResult, d time.Duration) float64 {
	u, t := slicedTime(d)
	if u <= 0 || t <= 0 || r.slicedRows[0] == 0 {
		return 0
	}
	ru := float64(r.slicedRows[0]) / u.Seconds()
	rt := float64(r.slicedRows[1]) / t.Seconds()
	return 100 * (ru - rt) / ru
}
