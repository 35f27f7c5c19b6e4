package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	table := func(ms []metric) []benchMetric {
		out := make([]benchMetric, len(ms))
		for i, m := range ms {
			out[i] = benchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			if m.Meaning == "" {
				t.Errorf("%s has no meaning", m.Name)
			}
		}
		return out
	}
	if got := table(endToEnd); !reflect.DeepEqual(got, b.EndToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the metric table:\n json %+v\ntable %+v", b.EndToEnd, got)
	}
	if got := table(perLayer); !reflect.DeepEqual(got, b.PerLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the metric table:\n json %+v\ntable %+v", b.PerLayer, got)
	}
	for _, m := range perLayer {
		if m.Moves == "" || m.On == "" {
			t.Errorf("%s does not say which end-to-end metric it moves on which workload", m.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if w.loads == "" || w.bypasses == "" {
			t.Errorf("%s does not say which layers it loads and bypasses", w.name)
		}
	}
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		s := w.size.scaled(0.02)
		a, err := makeInputs(s, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(s, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: inputs differ for the same seed", w.name)
		}
		c, err := makeInputs(s, 43)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.train, c.train) || reflect.DeepEqual(a.queries, c.queries) || reflect.DeepEqual(a.ingest, c.ingest) {
			t.Errorf("%s: inputs are the same for seeds 42 and 43", w.name)
		}
		if len(a.queries) == 0 || len(a.ingest) == 0 || a.probeN == 0 || len(a.train) != a.n*a.dim {
			t.Errorf("%s: incomplete inputs: %d requests, %d ingest batches, %d probe rows, %d training values", w.name, len(a.queries), len(a.ingest), a.probeN, len(a.train))
		}
	}
}

// TestTinyRuns runs every workload at a tiny size, untraced and traced,
// and checks that each run passes its correctness checks and reports
// every metric BENCHMARK.json names, with its unit.
func TestTinyRuns(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			rc := runConfig{seed: 42, measure: 400 * time.Millisecond, trace: traced, scale: 0.02, nproc: runtime.NumCPU(), outDir: t.TempDir()}
			out, err := run(w, rc)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
				continue
			}
			line := out.line
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%+v facts=%v",
					w.name, traced, line.Correct, line.Attempted, line.Failed, out.report["report"].(map[string]any)["checks"], out.report["report"].(map[string]any)["facts"])
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, v, m.Unit)
				}
			}
			// The result line must encode as JSON.
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
		}
	}
}

func TestBinomialQuantile(t *testing.T) {
	// binomial(512, 0.01) has mean 5.12; its 0.999 quantile is 13.
	if got := binomialQuantile(512, 0.01, 0.999); got != 13 {
		t.Errorf("binomialQuantile(512, 0.01, 0.999) = %d, want 13", got)
	}
	if got := binomialQuantile(10, 0.5, 0.5); got != 5 {
		t.Errorf("binomialQuantile(10, 0.5, 0.5) = %d, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client/classify", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.ServeHTTP", Start: 10, End: 70},
		{ID: 3, Name: "core.Load", Start: 200, End: 250},
	}
	self := selfTimes(spans)
	if len(self) != 1 || self[1] != 40 {
		t.Errorf("selfTimes = %v, want map[1:40]", self)
	}
	if got := selfMedianUS(spans, self, "client/classify"); got != 0.04 {
		t.Errorf("selfMedianUS = %v, want 0.04", got)
	}
}

func TestSlicedTime(t *testing.T) {
	u, tr := slicedTime(1300 * time.Millisecond)
	if u != 750*time.Millisecond || tr != 550*time.Millisecond {
		t.Errorf("slicedTime(1.3s) = %v, %v; want 750ms, 550ms", u, tr)
	}
	if tracedAt(100*time.Millisecond) || !tracedAt(300*time.Millisecond) {
		t.Error("the first slice must be untraced and the second traced")
	}
}
