package main

import (
	"fmt"
	"sync"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/fleet"
	"tkdc/internal/server"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// leader is stream-ingest-2d's streaming server and its follower.
type leader struct {
	svc *stream.Service
	st  *serveStack
	f   *follower
}

func (l *leader) close() {
	l.f.close()
	l.st.close()
	l.svc.Close()
}

// startLeader wires a streaming leader as cmd/tkdc -serve -stream does
// (prefilled reservoir, ingest shards = nproc, the publisher re-encoding
// on every swap) and syncs a follower from it.
func (e *env) startLeader(clf *core.Classifier, reg *telemetry.Registry) (*leader, error) {
	var pub *fleet.Publisher
	svc, err := stream.NewService(clf, stream.Config{
		Capacity: e.in.n,
		Seed:     e.rc.seed,
		Shards:   e.rc.nproc,
		Prefill:  true,
		Recorder: reg,
		OnSwap: func(uint64) {
			if pub != nil {
				pub.Refresh()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	pub = fleet.NewPublisher(svc.Model())
	svc.Start()
	st, err := e.startServe(clf, reg, server.Options{Stream: svc, Publisher: pub})
	if err != nil {
		svc.Close()
		return nil, err
	}
	f, err := e.newFollower(st.http.url)
	if err == nil {
		err = e.sync(f, 1)
	}
	if err != nil {
		st.close()
		svc.Close()
		return nil, err
	}
	return &leader{svc: svc, st: st, f: f}, nil
}

// answer is one /classify answer, judged after the phase against the
// classifier of the generation that gave it.
type answer struct {
	i    int
	gen  uint64
	mask uint64
}

// cycleEvery is the cadence at which client 1 starts its
// ingest-retrain-sync cycles, one per cycleEvery of the round's phase.
// A fixed cadence keeps the share of the phase that retrains take from
// client 2 the same in every round.
const cycleEvery = 1250 * time.Millisecond

// runStream is stream-ingest-2d. Each round starts a streaming leader
// and its follower; then client 1 posts 256-row /ingest batches and,
// after every retrainEvery of them, calls Service.Retrain and then
// Follower.Sync, while client 2 posts 32-row /classify throughout.
func runStream(e *env) error {
	var retrains, ingestedTotal, readsTotal int64
	err := e.runRounds(func(r int) error {
		reg := telemetry.NewRegistry()
		t0 := time.Now()
		clf, err := e.train(reg)
		if err != nil {
			return err
		}
		l, err := e.startLeader(clf, reg)
		if err != nil {
			return err
		}
		defer l.close()
		setup := time.Since(t0).Seconds()
		e.keep("setup_s", setup)
		e.keep("heap_mb", liveHeapMB())

		var (
			amu     sync.Mutex
			answers []answer
		)
		record := func(i int, rep *classifyReply) bool {
			m, err := rep.mask()
			amu.Lock()
			answers = append(answers, answer{i, rep.Generation, m})
			amu.Unlock()
			return err == nil
		}
		gens := map[uint64]*core.Classifier{1: clf}

		c2 := newClient(l.st.http.url, 1, e.tr)
		defer c2.close()
		warm := closedLoop(c2, e.in.queries, 1, 100*time.Millisecond, false, record)
		e.loop(&warm, "warmup")

		before := clf.Stats()
		h0, m0 := clf.GridCounters()
		var (
			wg    sync.WaitGroup
			reads loopResult
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads = closedLoop(c2, e.in.queries, 1, e.phase(), e.tr != nil, record)
		}()
		ingested, err := e.churn(l, gens, time.Now(), e.phase())
		wg.Wait()
		if err != nil {
			e.facts["first_error_ingest"] = err.Error()
		}
		e.loop(&reads, "classify")

		var after core.Counters
		var h1, m1 int64
		for _, g := range gens {
			after = addCounters(after, g.Stats())
			h, m := g.GridCounters()
			h1, m1 = h1+h, m1+m
		}
		if err := e.judge(answers, gens); err != nil {
			return err
		}
		retrains += int64(len(gens) - 1)
		ingestedTotal += ingested
		readsTotal += reads.attempted

		rows := float64(reads.rows) / reads.elapsed.Seconds()
		n := float64(e.in.n)
		e.keep("rows_per_s", rows)
		e.keepLatency(reads.latMS, reads.atMS, e.phase())
		e.keep("effective_rows_per_s", n/(setup+n/rows))
		e.overheads = append(e.overheads, overheadPct(&reads, e.phase()))
		if !e.traceLast(r) {
			return nil
		}
		cur, _, _ := l.svc.Model().View()
		return e.layers(&layerEnv{
			clf: cur, reg: reg, attached: true,
			model:    l.svc.Model(),
			srv:      l.st.srv,
			url:      l.st.http.url,
			svc:      l.svc,
			ingSrv:   l.st.srv,
			rowsets:  e.in.queries,
			delta:    counterDelta(before, after),
			gridHits: h1 - h0, gridMisses: m1 - m0,
		})
	})
	if err != nil {
		return err
	}
	e.checkf("accepted rows equal rows sent", e.ingestRejected == 0, "%d rows accepted, %d batches rejected", ingestedTotal, e.ingestRejected)
	e.checkf("retrains happened", retrains > 0, "%d retrains", retrains)
	if retrains == 0 {
		return fmt.Errorf("no retrain finished within %v", e.rc.measure)
	}
	e.facts["retrains"] = retrains
	e.facts["rows_ingested"] = ingestedTotal
	e.facts["classify_requests"] = readsTotal
	return nil
}

// churn is client 1 for a phase of d from start: one cycle due every
// cycleEvery (at least one cycle), each posting retrainEvery ingest
// batches and then running Retrain, Sync and the replica parity check.
// A cycle that runs late starts the next at once. It records retrain_s
// and freshness_s samples and every /ingest batch (keepIngest), and adds
// every new generation's classifier to gens; it returns the rows
// accepted.
func (e *env) churn(l *leader, gens map[uint64]*core.Classifier, start time.Time, d time.Duration) (int64, error) {
	c := newClient(l.st.http.url, 1, e.tr)
	defer c.close()
	var (
		ingested int64
		lastGen  uint64 = 1
		next     int
	)
	end := start.Add(d)
	cycles := max(1, int(d/cycleEvery))
	for cycle := 0; cycle < cycles; cycle++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(cycle) / time.Duration(cycles))))
		for k := 0; k < e.in.retrainEvery && time.Now().Before(end); k++ {
			b := e.in.ingest[next%len(e.in.ingest)]
			next++
			var rep struct {
				Accepted int `json:"accepted"`
			}
			t0 := time.Now()
			err := c.post("/ingest", b.csv, e.tr != nil, &rep)
			dt := time.Since(t0)
			e.attempted++
			if err == nil && rep.Accepted != b.n {
				err = fmt.Errorf("/ingest accepted %d of %d rows", rep.Accepted, b.n)
			}
			if err != nil {
				e.failed++
				e.ingestRejected++
				return ingested, err
			}
			ingested += int64(rep.Accepted)
			e.keepIngest(rep.Accepted, dt)
		}
		if !time.Now().Before(end) {
			break
		}
		t0 := time.Now()
		err := l.svc.Retrain()
		t1 := time.Now()
		e.attempted++
		if err != nil {
			e.failed++
			return ingested, err
		}
		e.tr.add(0, 0, "stream.Service.Retrain", t0, t1)
		cur, gen, _ := l.svc.Model().View()
		e.checkf("generations strictly increase", gen > lastGen, "generation %d after %d", gen, lastGen)
		lastGen = gen
		gens[gen] = cur
		e.trains = append(e.trains, cur.TrainStats())
		err = e.sync(l.f, gen)
		t2 := time.Now()
		e.attempted++
		if err != nil {
			e.failed++
			return ingested, err
		}
		e.tr.add(0, 0, "fleet.Follower.Sync", t1, t2)
		e.keep("retrain_s", t1.Sub(t0).Seconds())
		e.keep("freshness_s", t2.Sub(t0).Seconds())
		if err := e.parity("follower labels equal leader labels after Sync", l.f.f.Model().Current(), cur); err != nil {
			return ingested, err
		}
	}
	return ingested, nil
}

// judge checks every /classify answer against Classifier.ClassifyFlat
// of the generation that gave it; each wrong answer is a failed
// operation.
func (e *env) judge(answers []answer, gens map[uint64]*core.Classifier) error {
	want := map[answer]uint64{}
	bad := 0
	for _, a := range answers {
		g, ok := gens[a.gen]
		if !ok {
			bad++
			continue
		}
		key := answer{i: a.i, gen: a.gen}
		m, ok := want[key]
		if !ok {
			labels, err := g.ClassifyFlat(e.in.queries[a.i].flat, e.in.queries[a.i].n)
			if err != nil {
				return err
			}
			m = maskOf(labels)
			want[key] = m
		}
		if m != a.mask {
			bad++
		}
	}
	e.failed += int64(bad)
	e.checkf("HTTP labels equal Classifier.ClassifyFlat of the answering generation", bad == 0,
		"%d of %d answers differ", bad, len(answers))
	return nil
}
