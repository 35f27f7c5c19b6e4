package main

import (
	"sync"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/server"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// runServe is serve-grid-2d and serve-sampling-27d. Each round sets up
// (train, serve, sync a replica from the server), then runs a closed
// loop of nproc clients for rows_per_s and an open loop at the
// workload's rate for latency, for a quarter and three quarters of the
// round's time (the tail needs more requests than the throughput), and ends
// with an ingest burst against a streaming server over the same model.
func runServe(e *env) error {
	var requests, overLimit int64
	err := e.runRounds(func(r int) error {
		reg := telemetry.NewRegistry()
		t0 := time.Now()
		clf, err := e.train(reg)
		if err != nil {
			return err
		}
		trained := time.Now()
		st, err := e.startServe(clf, reg, server.Options{})
		if err != nil {
			return err
		}
		defer st.close()
		up := time.Now()
		if err := e.replicaOverHTTP(st.http.url, clf, t0); err != nil {
			return err
		}
		e.keep("setup_s", up.Sub(t0).Seconds())
		e.keep("retrain_s", trained.Sub(t0).Seconds())
		e.keep("heap_mb", liveHeapMB())
		e.trains = append(e.trains, clf.TrainStats())

		want, err := e.expectedMasks(clf)
		if err != nil {
			return err
		}
		var mu sync.Mutex
		mismatch := 0
		verify := func(i int, rep *classifyReply) bool {
			m, err := rep.mask()
			ok := err == nil && rep.Generation == 1 && m == want[i]
			if !ok {
				mu.Lock()
				mismatch++
				mu.Unlock()
			}
			return ok
		}
		c := newClient(st.http.url, e.rc.nproc, e.tr)
		defer c.close()
		// Warm the connections, pools and caches before timing.
		warm := closedLoop(c, e.in.queries, e.rc.nproc, 100*time.Millisecond, false, verify)
		e.loop(&warm, "warmup")

		c0 := clf.Stats()
		h0, m0 := clf.GridCounters()
		closedTime := e.phase() / 4
		openTime := e.phase() - closedTime
		closed := closedLoop(c, e.in.queries, e.rc.nproc, closedTime, e.tr != nil, verify)
		e.loop(&closed, "closed")
		open := openLoop(c, e.in.queries, e.rc.nproc, e.w.rate, openTime, e.tr != nil, verify)
		e.loop(&open, "open")
		c1 := clf.Stats()
		h1, m1 := clf.GridCounters()
		e.checkf("HTTP labels equal Classifier.ClassifyFlat (coalesced = direct)", mismatch == 0,
			"%d of %d answers differ", mismatch, warm.attempted+closed.attempted+open.attempted)
		if r == 0 {
			if err := e.bandCheck(clf, e.in.queries); err != nil {
				return err
			}
		}

		tail, err := e.ingestBurst(clf, reg, true)
		if err != nil {
			return err
		}
		defer tail.close()

		rows := float64(closed.rows) / closed.elapsed.Seconds()
		n := float64(e.in.n)
		e.keep("rows_per_s", rows)
		e.keepLatency(open.latMS, open.atMS, openTime)
		e.keep("effective_rows_per_s", n/(up.Sub(t0).Seconds()+n/rows))
		e.overheads = append(e.overheads, overheadPct(&closed, closedTime))
		requests += open.attempted
		for _, l := range open.latMS {
			if l > e.w.limitMS {
				overLimit++
			}
		}
		if !e.traceLast(r) {
			return nil
		}
		return e.layers(&layerEnv{
			clf: clf, reg: reg, attached: true,
			model:    stream.NewModel(clf),
			srv:      st.srv,
			url:      st.http.url,
			svc:      tail.svc,
			ingSrv:   tail.srv,
			rowsets:  e.in.queries,
			delta:    counterDelta(c0, c1),
			gridHits: h1 - h0, gridMisses: m1 - m0,
			waitMS: open.waitMS,
		})
	})
	e.facts["open_loop_requests"] = requests
	e.facts["open_loop_over_limit"] = overLimit
	return err
}

// replicaOverHTTP syncs a fresh follower from the server at url,
// records freshness_s from t0 (the start of training) until Sync
// returns, and checks the replica's labels against the leader's.
func (e *env) replicaOverHTTP(url string, leader *core.Classifier, t0 time.Time) error {
	f, err := e.newFollower(url)
	if err != nil {
		return err
	}
	defer f.close()
	if err := e.sync(f, 1); err != nil {
		return err
	}
	e.keep("freshness_s", time.Since(t0).Seconds())
	return e.parity("replica labels equal leader labels", f.f.Model().Current(), leader)
}
