package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tkdc/internal/kdtree"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	data := gauss2D(rng, 1500)
	cfg := testConfig()
	orig, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Threshold() != orig.Threshold() {
		t.Fatalf("threshold changed: %g vs %g", loaded.Threshold(), orig.Threshold())
	}
	lo1, hi1 := orig.ThresholdBounds()
	lo2, hi2 := loaded.ThresholdBounds()
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatal("threshold bounds changed")
	}
	if loaded.N() != orig.N() || loaded.Dim() != orig.Dim() {
		t.Fatal("shape changed")
	}
	if loaded.TrainStats().BootstrapRounds != orig.TrainStats().BootstrapRounds {
		t.Fatal("train stats not preserved")
	}

	// Every query must classify identically — the index rebuild is
	// deterministic and the threshold is persisted exactly.
	for trial := 0; trial < 300; trial++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		a, err := orig.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label != b.Label || a.Lower != b.Lower || a.Upper != b.Upper {
			t.Fatalf("query %v: original %+v, loaded %+v", q, a, b)
		}
	}
}

func TestSaveLoadPreservesGridState(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := gauss2D(rng, 800)

	// With grid.
	withGrid, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := withGrid.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.grid == nil {
		t.Fatal("grid not rebuilt on load")
	}

	// Without grid.
	cfg := testConfig()
	cfg.DisableGrid = true
	noGrid, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := noGrid.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err = Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.grid != nil {
		t.Fatal("grid rebuilt despite DisableGrid")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("garbage input should error")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	data := gauss2D(rng, 300)
	c, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if modelVersion != 3 {
		t.Fatalf("update TestLoadRejectsWrongVersion for version %d", modelVersion)
	}
	if _, err := Load(&buf); err != nil {
		t.Fatal(err)
	}

	// A snapshot from a future (unknown) format version must be rejected.
	future := modelSnapshot{
		Version: modelVersion + 1,
		Config:  testConfig(),
		Flat:    []float64{1, 2},
		Dim:     2,
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&future); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "unsupported model version") {
		t.Fatalf("future version error = %v, want unsupported-version", err)
	}
}

// TestSaveLoadParallelBitIdentical trains the same data sequentially and
// with Workers=4, and checks the two models — and a save/load round trip
// of the parallel one (Load rebuilds the index and grid through the same
// parallel path) — agree on every score bit-for-bit.
func TestSaveLoadParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := gauss2D(rng, 1500)
	seq, err := Train(data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Workers = 4
	par, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Threshold() != par.Threshold() {
		t.Fatalf("threshold: sequential %.17g, parallel %.17g", seq.Threshold(), par.Threshold())
	}

	var buf bytes.Buffer
	if err := par.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.TrainStats().Workers; got != 4 {
		t.Fatalf("loaded TrainStats.Workers = %d, want 4", got)
	}
	for trial := 0; trial < 200; trial++ {
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		a, err := seq.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label != b.Label || a.Lower != b.Lower || a.Upper != b.Upper {
			t.Fatalf("query %d: sequential %+v, parallel-loaded %+v", trial, a, b)
		}
	}
}

// TestLoadRebuildsTrainedIndex pins the index handoff: training serves
// the k-d tree its last bootstrap round built over the full dataset,
// and Load rebuilds the tree from the snapshot, so the two must be the
// same tree — NodeMeta, box slab, and reordered points, bit for bit.
// The case is chosen so that the bootstrap retries at r = n: the served
// tree is the one built on the first full-data round and kept across
// the retry.
func TestLoadRebuildsTrainedIndex(t *testing.T) {
	var trained *Classifier
	for seed := int64(1); seed <= 20 && trained == nil; seed++ {
		data := gauss2D(rand.New(rand.NewSource(seed)), 2000)
		cfg := testConfig()
		cfg.Seed = seed
		cfg.HBuffer = 1 // unbuffered bounds make a retry at r = n likely
		c, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full := 0
		for _, sp := range c.TrainStats().Phases {
			if strings.HasPrefix(sp.Name, "bootstrap/") && sp.Items == int64(c.N()) {
				full++
			}
		}
		if full >= 2 {
			trained = c
		}
	}
	if trained == nil {
		t.Fatal("no seed retried the bootstrap at r = n; the case no longer exercises the handoff")
	}

	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameTreeBits(t, trained.tree, loaded.tree)
}

// sameTreeBits fails unless two trees have equal NodeMeta slabs and
// bit-identical box slabs and reordered point buffers.
func sameTreeBits(t *testing.T, want, got *kdtree.Tree) {
	t.Helper()
	if !reflect.DeepEqual(want.Meta, got.Meta) {
		t.Fatal("NodeMeta slabs differ")
	}
	sameBits := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	sameBits("Boxes", want.Boxes, got.Boxes)
	sameBits("Pts", want.Pts.Data, got.Pts.Data)
}
