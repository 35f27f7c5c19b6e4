package stream

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"tkdc/internal/points"
	"tkdc/internal/sample"
)

// maxShards bounds the shard count: past this, per-shard sample memory
// (each shard holds a full-capacity buffer) dwarfs any contention win.
const maxShards = 64

// DefaultShards is the shard count used when a ShardedIngestor is built
// with shards == 0: one shard per scheduler thread, clamped to
// [1, maxShards]. One core means one shard — the single-lock fast path,
// bit-identical to the unsharded ingestor.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// ShardedIngestor spreads ingest traffic over K independent Ingestors so
// batch ingestion scales past a single mutex: each Add/AddFlat call is
// assigned whole to one shard by a wait-free ticket counter (one atomic
// add — the same scheme the core work counters use), validates outside
// any lock, and contends only with the other batches that landed on the
// same shard. K is fixed at creation.
//
// Sampling semantics follow the distributed-reservoir merge argument
// (cf. Phillips & Tai on when compressed samples preserve KDE
// accuracy): each shard keeps a full-capacity seeded reservoir (seed ⊕
// shard id) over its own sub-stream, and Snapshot draws the merged
// sample by allocating slots across shards with the exact multivariate
// hypergeometric distribution over per-shard seen counts — a uniform
// sample of one shard's sub-stream, drawn proportionally to how much of
// the union stream that shard saw, is a uniform sample of the union.
// The merge uses its own generator seeded from the service seed and
// never perturbs shard reservoir state, so for a fixed batch→shard
// assignment (e.g. any single-threaded feed) ingest-then-snapshot is
// fully deterministic. Window mode merges by per-shard arrival order
// instead: the newest rows of each shard, allocated proportionally to
// occupancy, oldest-to-newest within each shard.
//
// With K == 1 every method delegates straight to the single shard — the
// exact pre-sharding code path, byte-identical samples included — which
// is what keeps the batch-training determinism bridge intact.
//
// Memory: K shards × capacity rows. Sharding buys ingest parallelism
// with sample memory, not accuracy.
type ShardedIngestor struct {
	shards   []*Ingestor
	seq      atomic.Uint32 // ticket counter behind shard assignment
	dim      atomic.Int64  // 0 until the first batch fixes it
	seed     int64
	capacity int // merged sample bound == each shard's capacity
	window   bool
}

// NewShardedIngestor builds a sharded ingestor whose merged sample holds
// at most capacity rows. shards == 0 picks DefaultShards (clamped from
// GOMAXPROCS); shards == 1 is the unsharded ingestor, bit-identical to
// NewIngestor with the same seed. Shard i's reservoir generator is
// seeded with seed ⊕ i, so shard 0 of any K matches the unsharded
// generator stream.
func NewShardedIngestor(capacity, dim int, seed int64, window bool, shards int) (*ShardedIngestor, error) {
	if shards < 0 {
		return nil, fmt.Errorf("stream: shard count %d must be non-negative", shards)
	}
	if shards == 0 {
		shards = DefaultShards()
	}
	if shards > maxShards {
		return nil, fmt.Errorf("stream: shard count %d exceeds the maximum %d", shards, maxShards)
	}
	s := &ShardedIngestor{
		shards:   make([]*Ingestor, shards),
		seed:     seed,
		capacity: capacity,
		window:   window,
	}
	if dim > 0 {
		s.dim.Store(int64(dim))
	}
	for i := range s.shards {
		ing, err := NewIngestor(capacity, dim, seed^int64(i), window)
		if err != nil {
			return nil, err
		}
		s.shards[i] = ing
	}
	return s, nil
}

// pick assigns the calling batch a shard round-robin off the ticket
// counter. Wait-free: one atomic add, no locks, no spinning.
func (s *ShardedIngestor) pick() *Ingestor {
	return s.shards[int(s.seq.Add(1)-1)%len(s.shards)]
}

// resolveDim fixes the ingestor-wide row width on first use and rejects
// batches that disagree with it. Per-shard checkDim cannot catch a
// cross-shard mismatch (two first batches of different widths would
// land on two empty shards and both be accepted), so the width is
// agreed here, once, with a CAS.
func (s *ShardedIngestor) resolveDim(batchDim int) (int, error) {
	d := int(s.dim.Load())
	if d == 0 {
		if s.dim.CompareAndSwap(0, int64(batchDim)) {
			return batchDim, nil
		}
		d = int(s.dim.Load()) // lost the race; someone else fixed it
	}
	if d != batchDim {
		return 0, fmt.Errorf("stream: batch has dimension %d, want %d", batchDim, d)
	}
	return d, nil
}

// Add ingests a batch of rows into one shard. Validation is
// all-or-nothing and runs before any lock, exactly as Ingestor.Add.
func (s *ShardedIngestor) Add(rows [][]float64) (int, error) {
	if len(s.shards) == 1 {
		return s.shards[0].Add(rows)
	}
	if len(rows) == 0 {
		return 0, nil
	}
	dim, err := s.resolveDim(len(rows[0]))
	if err != nil {
		return 0, err
	}
	if err := validateRows(rows, dim); err != nil {
		return 0, err
	}
	return s.pick().addPrevalidated(rows, dim)
}

// AddFlat is Add over rows already in flat row-major form.
func (s *ShardedIngestor) AddFlat(flat []float64, dim int) (int, error) {
	if len(s.shards) == 1 {
		return s.shards[0].AddFlat(flat, dim)
	}
	if dim <= 0 {
		return 0, fmt.Errorf("stream: dimension %d must be positive", dim)
	}
	want, err := s.resolveDim(dim)
	if err != nil {
		return 0, err
	}
	if err := validateFlat(flat, dim, want); err != nil {
		return 0, err
	}
	return s.pick().addFlatPrevalidated(flat, dim)
}

// lockAll acquires every shard lock in index order (the fixed order is
// what makes concurrent Snapshot calls deadlock-free) so the merge
// reads one atomic cut across all shards — a batch is either entirely
// in the merged sample or entirely absent, the same guarantee the
// single-lock Snapshot gave.
func (s *ShardedIngestor) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *ShardedIngestor) unlockAll() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// Snapshot copies the merged sample — at most capacity rows drawn
// across all shards — into a fresh store and returns the total rows
// ever ingested at the moment of the copy. With one shard it is exactly
// Ingestor.Snapshot. The merge is seeded from the construction seed and
// leaves shard reservoir state untouched, so back-to-back Snapshots of
// an idle ingestor are identical.
func (s *ShardedIngestor) Snapshot() (*points.Store, int64) {
	if len(s.shards) == 1 {
		return s.shards[0].Snapshot()
	}
	s.lockAll()
	defer s.unlockAll()

	var seen int64
	held, dim := 0, 0
	for _, sh := range s.shards {
		seen += sh.seen
		held += sh.n
		if dim == 0 && sh.n > 0 {
			dim = int(sh.dim.Load())
		}
	}
	if held == 0 {
		return nil, seen
	}
	if s.window {
		return s.mergeWindowLocked(dim, held), seen
	}
	return s.mergeReservoirLocked(dim, seen), seen
}

// mergeReservoirLocked draws the merged reservoir: a uniform
// min(capacity, seen)-row sample of the union stream. Slot counts per
// shard follow the multivariate hypergeometric over per-shard seen
// totals (simulated draw by draw), then each shard contributes that
// many distinct uniformly chosen rows of its own reservoir via the same
// sparse Fisher–Yates the drift probe uses. Every shard's reservoir
// holds min(seen_i, capacity) rows and a shard's count can never exceed
// min(seen_i, target), so the allocation is always satisfiable.
// Callers hold all shard locks.
func (s *ShardedIngestor) mergeReservoirLocked(dim int, seen int64) *points.Store {
	target := s.capacity
	if seen < int64(target) {
		// Fill phase everywhere: no shard has evicted, so the merged
		// sample is every held row — no draw needed.
		target = int(seen)
	}
	out := points.New(target, dim)
	if int64(target) == seen {
		row := 0
		for _, sh := range s.shards {
			copy(out.Data[row*dim:], sh.buf.Data[:sh.n*dim])
			row += sh.n
		}
		return out
	}

	rng := rand.New(rand.NewSource(s.seed))
	counts := make([]int, len(s.shards))
	remaining := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		remaining[i] = sh.seen
	}
	total := seen
	for t := 0; t < target; t++ {
		u := rng.Int63n(total)
		for i := range remaining {
			if u < remaining[i] {
				counts[i]++
				remaining[i]--
				break
			}
			u -= remaining[i]
		}
		total--
	}

	row := 0
	for i, sh := range s.shards {
		k := counts[i]
		switch {
		case k == 0:
		case k == sh.n:
			copy(out.Data[row*dim:], sh.buf.Data[:sh.n*dim])
			row += k
		default:
			sample.Slots(rng, sh.n, k, func(slot int) {
				copy(out.Data[row*dim:(row+1)*dim], sh.buf.Row(slot))
				row++
			})
		}
	}
	return out
}

// mergeWindowLocked merges sliding windows by per-shard arrival order:
// each shard contributes its newest rows, oldest-to-newest, with row
// counts allocated proportionally to shard occupancy by largest
// remainder (deterministic, no RNG — recency, not uniformity, is the
// window contract). With balanced round-robin traffic this is the
// newest ~capacity rows of the union stream. Callers hold all shard
// locks; held is the total occupancy (> 0).
func (s *ShardedIngestor) mergeWindowLocked(dim, held int) *points.Store {
	m := s.capacity
	if held < m {
		m = held
	}
	take := make([]int, len(s.shards))
	if m == held {
		for i, sh := range s.shards {
			take[i] = sh.n
		}
	} else {
		// Largest-remainder allocation of m over shard occupancies: floor
		// the proportional quotas, then hand the leftover rows to the
		// largest fractional parts (ties to the lower shard id). A quota
		// can only have a remainder when it is strictly below the shard's
		// occupancy, so no shard is ever asked for more than it holds.
		rem := make([]int64, len(s.shards))
		given := 0
		for i, sh := range s.shards {
			q := int64(m) * int64(sh.n)
			take[i] = int(q / int64(held))
			rem[i] = q % int64(held)
			given += take[i]
		}
		for ; given < m; given++ {
			best := -1
			for i := range rem {
				if rem[i] > 0 && (best == -1 || rem[i] > rem[best]) {
					best = i
				}
			}
			take[best]++
			rem[best] = 0
		}
	}
	out := points.New(m, dim)
	row := 0
	for i, sh := range s.shards {
		if take[i] == 0 {
			continue
		}
		sh.copyNewestLocked(out.Data[row*dim:(row+take[i])*dim], take[i])
		row += take[i]
	}
	return out
}

// Sample copies at most k uniformly drawn rows of the merged sample
// into a fresh store — the drift probe's input — using a private
// generator so the draw is reproducible and does not perturb any
// shard's reservoir. Slots are allocated across shards hypergeometrically
// over current occupancies (a uniform k-subset of the union of held
// rows), then drawn per shard by sparse Fisher–Yates. Returns nil while
// empty.
func (s *ShardedIngestor) Sample(k int, seed int64) *points.Store {
	if len(s.shards) == 1 {
		return s.shards[0].Sample(k, seed)
	}
	s.lockAll()
	defer s.unlockAll()

	held, dim := 0, 0
	for _, sh := range s.shards {
		held += sh.n
		if dim == 0 && sh.n > 0 {
			dim = int(sh.dim.Load())
		}
	}
	if held == 0 || k < 1 {
		return nil
	}
	if k > held {
		k = held
	}
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, len(s.shards))
	if k == held {
		for i, sh := range s.shards {
			counts[i] = sh.n
		}
	} else {
		remaining := make([]int64, len(s.shards))
		for i, sh := range s.shards {
			remaining[i] = int64(sh.n)
		}
		total := int64(held)
		for t := 0; t < k; t++ {
			u := rng.Int63n(total)
			for i := range remaining {
				if u < remaining[i] {
					counts[i]++
					remaining[i]--
					break
				}
				u -= remaining[i]
			}
			total--
		}
	}
	out := points.New(k, dim)
	row := 0
	for i, sh := range s.shards {
		c := counts[i]
		switch {
		case c == 0:
		case c == sh.n:
			copy(out.Data[row*dim:], sh.buf.Data[:sh.n*dim])
			row += c
		default:
			sample.Slots(rng, sh.n, c, func(slot int) {
				copy(out.Data[row*dim:(row+1)*dim], sh.buf.Row(slot))
				row++
			})
		}
	}
	return out
}

// Seen returns the total number of rows ever ingested across all
// shards.
func (s *ShardedIngestor) Seen() int64 {
	if len(s.shards) == 1 {
		return s.shards[0].Seen()
	}
	var total int64
	for _, sh := range s.shards {
		total += sh.Seen()
	}
	return total
}

// Len returns the merged sample's current size: min(Capacity, total
// rows held), the number of rows Snapshot would return.
func (s *ShardedIngestor) Len() int {
	if len(s.shards) == 1 {
		return s.shards[0].Len()
	}
	held := 0
	for _, sh := range s.shards {
		held += sh.Len()
	}
	if held > s.capacity {
		return s.capacity
	}
	return held
}

// Dim returns the row width, or 0 before the first batch arrives.
func (s *ShardedIngestor) Dim() int {
	if len(s.shards) == 1 {
		return s.shards[0].Dim()
	}
	return int(s.dim.Load())
}

// Capacity returns the merged sample bound.
func (s *ShardedIngestor) Capacity() int { return s.capacity }

// WindowMode reports whether the shards keep sliding windows rather
// than reservoirs.
func (s *ShardedIngestor) WindowMode() bool { return s.window }

// Shards returns the shard count K.
func (s *ShardedIngestor) Shards() int { return len(s.shards) }

// ShardFills reports each shard's occupancy as a fraction of its
// capacity — the per-shard fill gauges on /metrics. Shards are read one
// at a time; the vector is advisory, not an atomic cut.
func (s *ShardedIngestor) ShardFills() []float64 {
	fills := make([]float64, len(s.shards))
	for i, sh := range s.shards {
		fills[i] = float64(sh.Len()) / float64(s.capacity)
	}
	return fills
}
