package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// samplingGoldenDataset builds the fixed d = 12 dataset the sampling
// fixture is defined over: 1200 training rows near a 3-dimensional
// latent manifold, 32 held-out rows from the same manifold, and the same
// 32 rows pushed 2.5× outward so the query labels include LOW. Like
// goldenDataset it depends only on math/rand.
func samplingGoldenDataset() ([][]float64, [][]float64) {
	const n, q = 1200, 32
	rows := latentData(rand.New(rand.NewSource(13)), n+q, 12, 3)
	queries := append([][]float64(nil), rows[n:]...)
	for _, x := range rows[n:] {
		far := make([]float64, len(x))
		for j, v := range x {
			far[j] = 2.5 * v
		}
		queries = append(queries, far)
	}
	return rows[:n], queries
}

// samplingGoldenConfig forces the sampling backend with n ≤ S0, so
// Algorithm 3 ends with rounds over the full dataset. Seed 2 makes the
// first r = n round back off and retry (asserted below), which is the
// path whose passes over the training rows must not change the model.
func samplingGoldenConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Backend = BackendSampling
	cfg.Seed = 2
	cfg.Workers = workers
	return cfg
}

// TestGoldenSampling pins training and classification under the
// sampling backend, at one worker and at four, to the committed
// testdata/golden_sampling.json (written by -update-golden).
func TestGoldenSampling(t *testing.T) {
	path := filepath.Join("testdata", "golden_sampling.json")
	for _, workers := range []int{1, 4} {
		data, queries := samplingGoldenDataset()
		clf, err := Train(data, samplingGoldenConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: Train: %v", workers, err)
		}
		full := 0
		for _, sp := range clf.TrainStats().Phases {
			if strings.HasPrefix(sp.Name, "bootstrap/") && sp.Items == int64(clf.N()) {
				full++
			}
		}
		if full < 2 {
			t.Fatalf("workers=%d: %d bootstrap rounds at r = n, want a retry (≥ 2)", workers, full)
		}
		got := goldenFixture{Threshold: clf.Threshold()}
		got.TLow, got.THigh = clf.ThresholdBounds()
		got.TrainLabels = classifyLabels(t, clf, data)
		got.QueryLabels = classifyLabels(t, clf, queries)
		if *updateGolden && workers == 1 {
			blob, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		compareToFixture(t, got, path)
	}
}

func classifyLabels(t *testing.T, clf *Classifier, rows [][]float64) []int {
	t.Helper()
	labels := make([]int, 0, len(rows))
	for _, x := range rows {
		l, err := clf.Classify(x)
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		labels = append(labels, int(l))
	}
	return labels
}
