package main

import (
	"bytes"
	"fmt"
	"time"

	"tkdc/internal/core"
	"tkdc/internal/server"
	"tkdc/internal/stream"
	"tkdc/internal/telemetry"
)

// runOffline is offline-tree-8d, through the library with telemetry
// off. Each round runs TrainFlat, loads a replica from the encoded
// snapshot, then runs ClassifyFlat over all n rows pass after pass for
// the round's time, and ends with an ingest burst through
// Service.IngestFlat.
func runOffline(e *env) error {
	passes := 0
	err := e.runRounds(func(r int) error {
		t0 := time.Now()
		clf, err := e.train(nil)
		if err != nil {
			return err
		}
		trained := time.Now()
		data, _, err := clf.EncodeSnapshot()
		if err != nil {
			return err
		}
		replica, err := core.Load(bytes.NewReader(data))
		if err != nil {
			return err
		}
		loaded := time.Now()
		replica.SetWorkers(e.rc.nproc)
		if err := e.parity("replica labels equal leader labels", replica, clf); err != nil {
			return err
		}
		setup := trained.Sub(t0).Seconds()
		e.keep("setup_s", setup)
		e.keep("retrain_s", setup)
		e.keep("freshness_s", loaded.Sub(t0).Seconds())
		e.keep("heap_mb", liveHeapMB())
		e.trains = append(e.trains, clf.TrainStats())

		n := e.in.n
		var first []core.Label
		c0 := clf.Stats()
		var split [2][]float64 // untraced, traced pass times
		var all, at []float64
		start := time.Now()
		for pass := 0; pass < 2 || time.Since(start) < e.phase(); pass++ {
			traced := e.tr != nil && pass%2 == 1
			t0 := time.Now()
			labels, err := clf.ClassifyFlat(e.in.train, n)
			t1 := time.Now()
			e.attempted++
			if err != nil {
				e.failed++
				e.facts["first_error_classify"] = err.Error()
				continue
			}
			d := ms(t1.Sub(t0))
			all = append(all, d)
			at = append(at, ms(t0.Sub(start)))
			if traced {
				e.tr.add(0, 0, "core.Classifier.ClassifyFlat", t0, t1)
				split[1] = append(split[1], d)
			} else {
				split[0] = append(split[0], d)
			}
			switch pass {
			case 0:
				first = labels
			case 1:
				same := len(labels) == len(first)
				for i := 0; same && i < len(labels); i++ {
					same = labels[i] == first[i]
				}
				e.checkf("ClassifyFlat passes agree", same, "two passes over %d rows", n)
			}
		}
		passes += len(all)
		if len(first) != n {
			return fmt.Errorf("the first ClassifyFlat pass failed")
		}
		c1 := clf.Stats()
		if r == 0 {
			if err := e.bandCheckRows(clf, e.in.train, n, first); err != nil {
				return err
			}
		}
		tail, err := e.ingestBurst(clf, nil, false)
		if err != nil {
			return err
		}
		defer tail.close()

		pass := median(split[0]) / 1e3
		e.keep("rows_per_s", float64(n)/pass)
		e.keepLatency(all, at, time.Since(start))
		e.keep("effective_rows_per_s", float64(n)/(setup+pass))
		if u := median(split[0]); e.tr != nil && len(split[1]) > 0 {
			e.overheads = append(e.overheads, 100*(median(split[1])-u)/u)
		}
		if !e.traceLast(r) {
			return nil
		}
		// The layer probes serve this model as cmd/tkdc -serve would.
		reg := telemetry.NewRegistry()
		st, err := e.startServe(clf, reg, server.Options{})
		if err != nil {
			return err
		}
		defer st.close()
		var chunks []batch
		for lo := 0; lo < n; lo += 1024 {
			hi := min(n, lo+1024)
			chunks = append(chunks, batch{flat: e.in.train[lo*e.in.dim : hi*e.in.dim], n: hi - lo})
		}
		return e.layers(&layerEnv{
			clf: clf, reg: reg, attached: false,
			model:   stream.NewModel(clf),
			srv:     st.srv,
			url:     st.http.url,
			svc:     tail.svc,
			ingSrv:  tail.srv,
			rowsets: chunks,
			delta:   counterDelta(c0, c1),
		})
	})
	e.facts["passes"] = passes
	return err
}
