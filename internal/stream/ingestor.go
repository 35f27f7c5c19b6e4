// Package stream turns the batch-trained tKDC stack into a continuously
// learning service. It has three pieces:
//
//   - Ingestor: accepts point batches and maintains a bounded-memory
//     sample directly in flat row-major storage — a deterministic seeded
//     reservoir (Vitter's Algorithm R) for stationary streams, or a
//     sliding window for drifting ones. The paper's threshold bootstrap
//     (§3.5) already derives t(p) from samples, which is what makes a
//     maintained sample a principled substrate for retraining.
//   - Model: an atomic generation-numbered handle over *core.Classifier;
//     queries never block on a model swap (one atomic pointer load per
//     query on the read side).
//   - Service: the background retrainer. When a trigger fires (ingested
//     row count, model age, or threshold drift against a cheap bootstrap
//     probe) it rebuilds a classifier from the current sample off the hot
//     path, publishes it through the Model, records the retrain as a
//     telemetry phase span, and writes an atomic on-disk snapshot.
package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"tkdc/internal/points"
	"tkdc/internal/sample"
)

// Ingestor maintains a bounded-memory sample of an unbounded point
// stream in flat row-major form. It is safe for concurrent use; Add
// batches are applied atomically with respect to Snapshot.
//
// In reservoir mode (the default) the sample is a uniform random subset
// of everything ever ingested, maintained with Vitter's Algorithm R over
// a seeded generator — two ingestors fed the same batches with the same
// seed hold bit-identical samples. While fewer rows than the capacity
// have arrived, the sample is exactly the rows in arrival order, which
// is what makes the batch-training determinism bridge exact.
//
// In window mode the sample is the most recent capacity rows, so old
// data ages out and retrains track distribution drift.
type Ingestor struct {
	mu       sync.Mutex
	window   bool
	capacity int
	// dim is 0 until the first row fixes it. It is atomic so the Add
	// fast path can read the expected row width for pre-lock validation
	// without acquiring (and immediately releasing) the ingest mutex;
	// the only writers run under mu.
	dim  atomic.Int64
	rng  *rand.Rand
	buf  *points.Store // allocated once the dimensionality is known
	n    int           // rows currently held (≤ capacity)
	seen int64         // rows ever ingested
}

// NewIngestor builds an ingestor holding at most capacity rows. dim
// fixes the expected row width; 0 infers it from the first row. seed
// drives reservoir eviction; window selects sliding-window mode (seed is
// then unused).
func NewIngestor(capacity, dim int, seed int64, window bool) (*Ingestor, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("stream: reservoir capacity %d must be at least 1", capacity)
	}
	if dim < 0 {
		return nil, fmt.Errorf("stream: dimension %d must be non-negative", dim)
	}
	ing := &Ingestor{
		window:   window,
		capacity: capacity,
		rng:      rand.New(rand.NewSource(seed)),
	}
	if dim > 0 {
		ing.dim.Store(int64(dim))
		ing.buf = points.New(capacity, dim)
	}
	return ing, nil
}

// Add ingests a batch of rows. The batch is validated in full first —
// consistent dimensionality, finite coordinates — and rejected whole on
// the first bad row, mirroring the /classify request semantics; nothing
// is ingested on error. Validation runs before the ingest lock is taken
// (the expected row width is one atomic load, not a mutex acquire), so a
// malformed (or merely large) batch never stalls concurrent ingesters
// while it is being checked. Returns the number of rows ingested.
func (i *Ingestor) Add(rows [][]float64) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	dim := i.Dim()
	if dim == 0 {
		dim = len(rows[0])
	}
	if err := validateRows(rows, dim); err != nil {
		return 0, err
	}
	return i.addPrevalidated(rows, dim)
}

// AddFlat ingests rows already in flat row-major form: flat holds
// len(flat)/dim rows of width dim. Validation and atomicity match Add.
func (i *Ingestor) AddFlat(flat []float64, dim int) (int, error) {
	want := i.Dim()
	if want == 0 {
		want = dim
	}
	if err := validateFlat(flat, dim, want); err != nil {
		return 0, err
	}
	return i.addFlatPrevalidated(flat, dim)
}

// addPrevalidated applies a batch whose rows have already passed
// validateRows against dim, taking the ingest lock once. checkDim
// re-verifies the width under the lock — a concurrent first batch may
// have fixed the dimensionality since validation ran.
func (i *Ingestor) addPrevalidated(rows [][]float64, dim int) (int, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if err := i.checkDim(dim); err != nil {
		return 0, err
	}
	for _, row := range rows {
		i.ingestRow(row)
	}
	return len(rows), nil
}

// addFlatPrevalidated is addPrevalidated over a flat row-major buffer
// that already passed validateFlat.
func (i *Ingestor) addFlatPrevalidated(flat []float64, dim int) (int, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if err := i.checkDim(dim); err != nil {
		return 0, err
	}
	n := len(flat) / dim
	for r := 0; r < n; r++ {
		i.ingestRow(flat[r*dim : (r+1)*dim])
	}
	return n, nil
}

// checkDim re-verifies, under i.mu, that a batch validated outside the
// lock still matches the ingestor's row width — a concurrent first batch
// may have fixed the dimensionality in between. Callers hold i.mu.
func (i *Ingestor) checkDim(dim int) error {
	if d := int(i.dim.Load()); d != 0 && d != dim {
		return fmt.Errorf("stream: batch has dimension %d, want %d", dim, d)
	}
	return nil
}

// validateRows checks every row for the expected width and finite
// coordinates, rejecting the batch whole on the first bad row.
func validateRows(rows [][]float64, dim int) error {
	for r, row := range rows {
		if err := checkRow(row, dim, r); err != nil {
			return err
		}
	}
	return nil
}

// validateFlat checks a flat row-major buffer: dim divides the length
// and every row of width dim matches the expected width want with
// finite coordinates.
func validateFlat(flat []float64, dim, want int) error {
	if dim <= 0 {
		return fmt.Errorf("stream: dimension %d must be positive", dim)
	}
	if len(flat)%dim != 0 {
		return fmt.Errorf("stream: buffer length %d is not a multiple of dimension %d", len(flat), dim)
	}
	n := len(flat) / dim
	for r := 0; r < n; r++ {
		if err := checkRow(flat[r*dim:(r+1)*dim], want, r); err != nil {
			return err
		}
	}
	return nil
}

func checkRow(row []float64, dim, idx int) error {
	if len(row) == 0 {
		return fmt.Errorf("stream: row %d is empty", idx)
	}
	if len(row) != dim {
		return fmt.Errorf("stream: row %d has dimension %d, want %d", idx, len(row), dim)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: row %d coordinate %d is %v", idx, j, v)
		}
	}
	return nil
}

// ingestRow applies one validated row. Callers hold i.mu.
func (i *Ingestor) ingestRow(row []float64) {
	if i.dim.Load() == 0 {
		i.dim.Store(int64(len(row)))
		i.buf = points.New(i.capacity, len(row))
	}
	i.seen++
	if i.n < i.capacity {
		copy(i.buf.Row(i.n), row)
		i.n++
		return
	}
	if i.window {
		// Ring overwrite: the slot of the oldest row is (seen-1) mod cap
		// once the buffer is full, because rows land in arrival order.
		copy(i.buf.Row(int((i.seen-1)%int64(i.capacity))), row)
		return
	}
	// Algorithm R: the new row replaces a uniformly random slot with
	// probability capacity/seen.
	if j := i.rng.Int63n(i.seen); j < int64(i.capacity) {
		copy(i.buf.Row(int(j)), row)
	}
}

// Snapshot copies the current sample into a fresh store — the input to a
// retrain, safe to index and keep while ingestion continues — and
// returns the total rows ingested at the moment of the copy. In window
// mode rows are ordered oldest to newest; in reservoir mode, by slot. A
// nil store is returned while the sample is empty.
func (i *Ingestor) Snapshot() (*points.Store, int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.n == 0 {
		return nil, i.seen
	}
	dim := int(i.dim.Load())
	out := points.New(i.n, dim)
	i.copyNewestLocked(out.Data, i.n)
	return out, i.seen
}

// copyNewestLocked copies the newest m held rows into dst in arrival
// order (oldest of the m first). In reservoir mode slot order is the
// only order there is, so m must equal n; in window mode any suffix of
// the arrival order can be taken. Callers hold i.mu and size dst to
// m*dim.
func (i *Ingestor) copyNewestLocked(dst []float64, m int) {
	dim := int(i.dim.Load())
	if i.window && i.n == i.capacity {
		// Full ring: the slot of the oldest held row is seen mod cap, so
		// arrival rank r lives at slot (head+r) mod cap. The newest m rows
		// are ranks n-m .. n-1, a wrapped contiguous run.
		head := int(i.seen % int64(i.capacity))
		start := (head + i.n - m) % i.capacity
		if start+m <= i.capacity {
			copy(dst, i.buf.Data[start*dim:(start+m)*dim])
			return
		}
		k := copy(dst, i.buf.Data[start*dim:])
		copy(dst[k:], i.buf.Data[:(m-(i.capacity-start))*dim])
		return
	}
	copy(dst, i.buf.Data[(i.n-m)*dim:i.n*dim])
}

// Sample copies at most k uniformly drawn rows of the current sample
// into a fresh store, using a private generator seeded with seed so the
// draw is reproducible and does not perturb reservoir eviction. It is
// the cheap input to the drift probe. Returns nil while empty.
//
// The draw is a sparse Fisher–Yates (sample.Slots): only the displaced
// slots are tracked, so a k-row probe over an n-row sample allocates
// O(k) instead of the O(n) index permutation it used to materialize —
// see BenchmarkSample. The emitted rows are identical to the dense
// shuffle's for any given seed.
func (i *Ingestor) Sample(k int, seed int64) *points.Store {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.n == 0 || k < 1 {
		return nil
	}
	dim := int(i.dim.Load())
	if k >= i.n {
		out := points.New(i.n, dim)
		copy(out.Data, i.buf.Data[:i.n*dim])
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	out := points.New(k, dim)
	j := 0
	sample.Slots(rng, i.n, k, func(slot int) {
		copy(out.Row(j), i.buf.Row(slot))
		j++
	})
	return out
}

// Seen returns the total number of rows ever ingested.
func (i *Ingestor) Seen() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.seen
}

// Len returns the number of rows currently held (≤ Capacity).
func (i *Ingestor) Len() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.n
}

// Dim returns the row width, or 0 before the first row arrives. It is
// one atomic load — the Add fast path reads it before validating a
// batch, so it must not (and does not) touch the ingest mutex.
func (i *Ingestor) Dim() int {
	return int(i.dim.Load())
}

// Capacity returns the sample bound.
func (i *Ingestor) Capacity() int { return i.capacity }

// WindowMode reports whether the ingestor keeps a sliding window rather
// than a reservoir.
func (i *Ingestor) WindowMode() bool { return i.window }

// errEmpty reports a retrain attempted before any rows arrived.
var errEmpty = errors.New("stream: no ingested rows to retrain on")
