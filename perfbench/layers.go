package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/kdtree"
	"tkdc/internal/server"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// layerEnv is what a traced run hands the layer probes: the served
// model and the stack around it, and what the measured phase counted.
type layerEnv struct {
	clf      *core.Classifier
	reg      *telemetry.Registry // attached for the "attached" side of telemetry.ns_per_row
	attached bool                // whether the workload serves with reg attached
	model    *stream.Model       // the handle srv reads clf through
	srv      *server.Server      // /classify over clf
	url      string              // loopback URL of srv
	svc      *stream.Service     // streaming service for the ingest probes
	ingSrv   *server.Server      // /ingest over svc
	rowsets  []batch             // the workload's own classification batches

	delta                core.Counters // work over the last round's measured phase
	gridHits, gridMisses int64
	waitMS               []float64 // open-loop waits; nil runs the probe
}

// probeBudget is roughly how long each timed repetition of a probe runs.
const probeBudget = 40 * time.Millisecond

// probeReps is how many interleaved repetitions a difference probe takes.
const probeReps = 7

// layers runs the layer probes of a traced run and sets every per-layer
// metric. Each probe times the benchmark's own calls into one layer's
// public functions, recording a span around each call.
func (e *env) layers(le *layerEnv) error {
	defer func() {
		if le.attached {
			le.clf.SetRecorder(le.reg)
		} else {
			le.clf.SetRecorder(nil)
		}
	}()
	if err := e.queryProbes(le); err != nil {
		return err
	}
	// The HTTP stack is probed as cmd/tkdc -serve wires it: registry on.
	le.clf.SetRecorder(le.reg)
	if err := e.handlerProbes(le); err != nil {
		return err
	}
	if err := e.ingestProbes(le); err != nil {
		return err
	}
	if err := e.indexAndFleetProbes(le); err != nil {
		return err
	}
	if err := e.clientProbes(le); err != nil {
		return err
	}

	d := le.delta
	perQuery := func(v int64) float64 {
		if d.Queries == 0 {
			return 0
		}
		return float64(v) / float64(d.Queries)
	}
	e.set("core.nodes_per_query", perQuery(d.NodesVisited))
	e.set("kernel.point_per_query", perQuery(d.PointKernels))
	e.set("kernel.bound_per_query", perQuery(d.BoundKernels))
	e.set("estimator.rounds_per_query", perQuery(d.SamplingRounds))
	e.set("estimator.samples_per_query", perQuery(d.SampledPoints))
	ratio := 0.0
	if tot := le.gridHits + le.gridMisses; tot > 0 {
		ratio = float64(le.gridHits) / float64(tot)
	}
	e.set("grid.hit_ratio", ratio)
	e.set("grid.cells", float64(le.clf.TrainStats().GridCells))
	e.trainPhases(e.trains)
	e.set("server.errors", float64(e.serverErrors))
	e.set("fleet.sync_failures", float64(e.syncFailures))
	e.set("stream.ingest_rejected", float64(e.ingestRejected))
	e.set("trace.overhead_pct", median(e.overheads))
	return nil
}

// timeRowsets classifies rowsets with fn, cycling from the start, until
// probeBudget has passed and at least one batch is done, and returns ns
// per row.
func (e *env) timeRowsets(rowsets []batch, name string, fn func(b batch) error) (float64, error) {
	rows := 0
	start := time.Now()
	for i := 0; rows == 0 || time.Since(start) < probeBudget; i++ {
		b := rowsets[i%len(rowsets)]
		t0 := time.Now()
		if err := fn(b); err != nil {
			return 0, err
		}
		e.tr.add(0, 0, name, t0, time.Now())
		rows += b.n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rows), nil
}

// queryProbes: core.query_ns_per_row (telemetry off) and
// telemetry.ns_per_row (attached minus detached) on the workload's own
// batches, and stream.model_ns_per_row (the Model handle minus the
// classifier, in the serving telemetry state), from interleaved
// repetitions on the same rows.
func (e *env) queryProbes(le *layerEnv) error {
	classify := func(b batch) error {
		_, err := le.clf.ClassifyFlat(b.flat, b.n)
		return err
	}
	viaModel := func(b batch) error {
		_, _, err := le.model.ClassifyFlat(b.flat, b.n)
		return err
	}
	// The handle is compared on the /classify requests: on larger
	// batches Model.ClassifyFlat switches to the dual-tree pass, which
	// would be measured instead of the handle.
	var off, on, direct, handle []float64
	for rep := 0; rep < probeReps; rep++ {
		le.clf.SetRecorder(nil)
		v, err := e.timeRowsets(le.rowsets, "core.Classifier.ClassifyFlat/detached", classify)
		if err != nil {
			return err
		}
		off = append(off, v)
		le.clf.SetRecorder(le.reg)
		if v, err = e.timeRowsets(le.rowsets, "core.Classifier.ClassifyFlat/attached", classify); err != nil {
			return err
		}
		on = append(on, v)

		if !le.attached {
			le.clf.SetRecorder(nil)
		}
		if v, err = e.timeRowsets(e.in.queries, "core.Classifier.ClassifyFlat", classify); err != nil {
			return err
		}
		direct = append(direct, v)
		if v, err = e.timeRowsets(e.in.queries, "stream.Model.ClassifyFlat", viaModel); err != nil {
			return err
		}
		handle = append(handle, v)
	}
	base := median(off)
	tele := medianDiff(on, off)
	e.set("core.query_ns_per_row", base)
	e.set("telemetry.ns_per_row", tele)
	e.set("telemetry.share", tele/base)
	e.set("stream.model_ns_per_row", medianDiff(handle, direct))
	return nil
}

// medianDiff is the median of the pairwise differences a[i] − b[i].
func medianDiff(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// handlerProbes: server.handler_us_per_req, server.self_us_per_req and
// server.allocs_per_req from in-process /classify ServeHTTP calls, each
// followed (in a second pass) by stream.Model.ClassifyFlat on the same
// rows recorded as the ServeHTTP span's child.
func (e *env) handlerProbes(le *layerEnv) error {
	qs := e.in.queries
	// Size the pass to roughly five probe budgets.
	t0 := time.Now()
	if _, _, err := le.model.ClassifyFlat(qs[0].flat, qs[0].n); err != nil {
		return err
	}
	k := int(5*probeBudget/max(time.Since(t0), 20*time.Microsecond)) + 1
	k = min(max(k, 32), 1024)

	reqs := make([]*http.Request, k)
	recs := make([]*httptest.ResponseRecorder, k)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(qs[i%len(qs)].csv))
		reqs[i].Header.Set("Content-Type", "text/csv")
		recs[i] = httptest.NewRecorder()
	}
	ids := make([]uint64, k)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		t0 := time.Now()
		le.srv.ServeHTTP(recs[i], reqs[i])
		ids[i] = e.tr.add(0, uint64(i+1), "server.Server.ServeHTTP/classify", t0, time.Now())
	}
	runtime.ReadMemStats(&m1)
	for i := range reqs {
		if recs[i].Code != http.StatusOK {
			e.serverErrors++
			return fmt.Errorf("in-process /classify: status %d: %s", recs[i].Code, strings.TrimSpace(recs[i].Body.String()))
		}
		q := qs[i%len(qs)]
		t0 := time.Now()
		if _, _, err := le.model.ClassifyFlat(q.flat, q.n); err != nil {
			return err
		}
		e.tr.add(ids[i], uint64(i+1), "stream.Model.ClassifyFlat", t0, time.Now())
	}
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	handler := durMedianUS(spans, "server.Server.ServeHTTP/classify")
	selfUS := selfMedianUS(spans, self, "server.Server.ServeHTTP/classify")
	e.set("server.handler_us_per_req", handler)
	e.set("server.self_us_per_req", selfUS)
	e.set("server.self_share", selfUS/handler)
	e.set("server.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(k))
	return nil
}

// ingestProbes: server.ingest_us_per_req (in-process /ingest ServeHTTP
// minus Service.IngestFlat of the same rows), stream.ingest_us_per_batch
// and stream.snapshot_ms (ShardedIngestor.Snapshot, the merge).
func (e *env) ingestProbes(le *layerEnv) error {
	for i, b := range e.in.ingest {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b.csv))
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		le.ingSrv.ServeHTTP(rec, req)
		id := e.tr.add(0, uint64(i+1), "server.Server.ServeHTTP/ingest", t0, time.Now())
		e.attempted++
		if rec.Code != http.StatusOK {
			e.failed++
			e.ingestRejected++
			continue
		}
		t0 = time.Now()
		accepted, err := le.svc.IngestFlat(b.flat, e.in.dim)
		e.tr.add(id, uint64(i+1), "stream.Service.IngestFlat", t0, time.Now())
		e.attempted++
		if err != nil || accepted != b.n {
			e.failed++
			e.ingestRejected++
		}
	}
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	e.set("server.ingest_us_per_req", selfMedianUS(spans, self, "server.Server.ServeHTTP/ingest"))
	e.set("stream.ingest_us_per_batch", durMedianUS(spans, "stream.Service.IngestFlat"))

	var snap []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		store, _ := le.svc.Ingestor().Snapshot()
		t1 := time.Now()
		if store == nil {
			return fmt.Errorf("empty ingest sample")
		}
		e.tr.add(0, 0, "stream.ShardedIngestor.Snapshot", t0, t1)
		snap = append(snap, ms(t1.Sub(t0)))
	}
	e.set("stream.snapshot_ms", median(snap))
	return nil
}

// indexAndFleetProbes: kdtree.Build on the served model's training
// store, EncodeSnapshot, core.Load of the bytes, and fresh
// Follower.Sync calls against the serving leader; three of each.
func (e *env) indexAndFleetProbes(le *layerEnv) error {
	cfg := le.clf.Config()
	var build, enc, load, syncMS []float64
	var size int
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := kdtree.Build(le.clf.TrainingData(), kdtree.Options{LeafSize: cfg.LeafSize, Split: cfg.Split, Workers: cfg.Workers}); err != nil {
			return err
		}
		t1 := time.Now()
		e.tr.add(0, 0, "kdtree.Build", t0, t1)
		build = append(build, ms(t1.Sub(t0)))

		data, _, err := le.clf.EncodeSnapshot()
		t2 := time.Now()
		if err != nil {
			return err
		}
		e.tr.add(0, 0, "core.Classifier.EncodeSnapshot", t1, t2)
		enc = append(enc, ms(t2.Sub(t1)))
		size = len(data)

		if _, err := core.Load(bytes.NewReader(data)); err != nil {
			return err
		}
		t3 := time.Now()
		e.tr.add(0, 0, "core.Load", t2, t3)
		load = append(load, ms(t3.Sub(t2)))

		f, err := e.newFollower(le.url)
		if err != nil {
			return err
		}
		t4 := time.Now()
		err = e.sync(f, le.model.Generation())
		t5 := time.Now()
		f.close()
		e.attempted++
		if err != nil {
			e.failed++
			e.facts["first_error_sync"] = err.Error()
			continue
		}
		e.tr.add(0, 0, "fleet.Follower.Sync", t4, t5)
		syncMS = append(syncMS, ms(t5.Sub(t4)))
	}
	ts := le.clf.TreeStats()
	e.set("kdtree.build_ms", median(build))
	e.set("kdtree.nodes", float64(ts.Nodes))
	e.set("kdtree.depth", float64(ts.MaxDepth))
	e.set("fleet.encode_ms", median(enc))
	e.set("fleet.snapshot_bytes", float64(size))
	e.set("fleet.load_ms", median(load))
	e.set("fleet.sync_ms", median(syncMS))
	return nil
}

// probeRate is the open-loop rate of the client probe on workloads
// without an open loop of their own.
const probeRate = 100

// clientProbes: transport.us_per_req, the median self time of traced
// client round trips (round trip minus the ServeHTTP span inside it),
// and client.wait_ms_p99. Workloads without an open loop, or without
// traced round trips, get them from a one-second open-loop probe.
func (e *env) clientProbes(le *layerEnv) error {
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	transport := selfMedianUS(spans, self, "client/classify")
	wait := le.waitMS
	if wait == nil || transport == 0 {
		want, err := e.expectedMasks(le.clf)
		if err != nil {
			return err
		}
		verify := func(i int, rep *classifyReply) bool {
			m, err := rep.mask()
			return err == nil && m == want[i]
		}
		c := newClient(le.url, e.rc.nproc, e.tr)
		r := openLoop(c, e.in.queries, e.rc.nproc, probeRate, time.Second, true, verify)
		c.close()
		e.loop(&r, "client_probe")
		if wait == nil {
			wait = r.waitMS
		}
		spans = e.tr.snapshot()
		transport = selfMedianUS(spans, selfTimes(spans), "client/classify")
	}
	e.set("transport.us_per_req", transport)
	e.set("client.wait_ms_p99", quantile(wait, 0.99))
	return nil
}

// trainPhases sets the core.train.* split from the run's trainings:
// the median over trainings of each phase's summed span time and of the
// retry counts.
func (e *env) trainPhases(trains []core.TrainStats) {
	var boot, asm, refine, rounds, passes, kernels []float64
	for _, ts := range trains {
		var b, a, r time.Duration
		p := 0
		for _, sp := range ts.Phases {
			switch {
			case strings.HasPrefix(sp.Name, "bootstrap/"):
				b += sp.Duration
			case sp.Name == "assemble":
				a += sp.Duration
			case strings.HasPrefix(sp.Name, "refine/"):
				r += sp.Duration
				p++
			}
		}
		boot = append(boot, b.Seconds())
		asm = append(asm, a.Seconds())
		refine = append(refine, r.Seconds())
		rounds = append(rounds, float64(ts.BootstrapRounds))
		passes = append(passes, float64(p))
		kernels = append(kernels, float64(ts.TrainKernels))
	}
	e.set("core.train.bootstrap_s", median(boot))
	e.set("core.train.assemble_s", median(asm))
	e.set("core.train.refine_s", median(refine))
	e.set("core.train.bootstrap_rounds", median(rounds))
	e.set("core.train.refine_passes", median(passes))
	e.set("core.train.kernels", median(kernels))
}
