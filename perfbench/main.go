// Command perfbench is the repository's benchmark. It runs one workload
// from a seed and prints, as the last line of standard output, one JSON
// object with the run's correctness, its attempted and failed
// operations, and its metrics: the end-to-end metrics, or with
// --trace 1 the per-layer metrics of a traced run. The line before it
// is a JSON report with the host facts and the checks.
//
// Run it from the repository root through the wrapper, which builds it
// first:
//
//	bash perfbench/run.sh --workload serve-grid-2d --seed 42 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed     = flag.Int64("seed", 42, "seed the inputs are generated from")
		secs     = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		traced   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	)
	flag.Parse()
	w, err := lookupWorkload(*workload)
	if err == nil && (*secs <= 0 || (*traced != 0 && *traced != 1)) {
		err = fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rc := runConfig{
		seed:    *seed,
		measure: time.Duration(*secs * float64(time.Second)),
		trace:   *traced == 1,
		scale:   1,
		nproc:   runtime.NumCPU(),
		outDir:  filepath.Join(".bench_build", "spans"),
	}
	out, err := run(w, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out.report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(out.line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type output struct {
	report map[string]any
	line   resultLine
}

// run generates the workload's inputs, runs it and assembles the
// output. Every metric of the run's kind must have been measured.
func run(w *workload, rc runConfig) (*output, error) {
	in, err := makeInputs(w.size.scaled(rc.scale), rc.seed)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, rc: rc, in: in, out: map[string]float64{}, facts: map[string]any{}, samples: map[string][]float64{}}
	if rc.trace {
		e.tr = newTracer()
	}
	if err := w.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	line := resultLine{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]value{}}
	for _, m := range defs {
		v, ok := e.out[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", w.name, m.Name)
		}
		line.Metrics[m.Name] = value{Value: finite(v), Unit: m.Unit}
	}
	line.Correct = e.failed == 0
	for _, c := range e.checks {
		line.Correct = line.Correct && c.OK
	}
	if line.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", w.name)
	}

	report := map[string]any{
		"host":     hostFacts(rc),
		"workload": w.name,
		"why":      w.why,
		"loads":    w.loads,
		"bypasses": w.bypasses,
		"rows":     in.n,
		"dim":      in.dim,
		// 0 where the workload has no open loop.
		"open_loop_rate_per_s": w.rate,
		"latency_limit_ms":     w.limitMS,
		"checks":               e.checks,
		"facts":                e.facts,
	}
	if rc.trace {
		path, err := writeSpans(rc.outDir, fmt.Sprintf("spans-%s-seed%d", w.name, rc.seed), e.tr.snapshot())
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		report["spans"] = path
		// The end-to-end numbers of the traced run, to set beside an
		// untraced run's: their difference is the tracing overhead.
		traced := map[string]float64{}
		for _, m := range endToEnd {
			traced[m.Name] = finite(e.out[m.Name])
		}
		report["end_to_end_traced"] = traced
		report["bases"] = map[string]string{
			"telemetry.ns_per_row":   "core.query_ns_per_row (telemetry.share is the ratio)",
			"server.self_us_per_req": "server.handler_us_per_req (server.self_share is the ratio)",
			"trace.overhead_pct":     "rows_per_s of the untraced slices of the same run",
		}
	}
	return &output{report: map[string]any{"report": report}, line: line}, nil
}

// finite replaces a non-finite value (a percentile over failed
// requests) with a large finite one JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat32
	}
	return v
}
