package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"tkdc/internal/estimator"
	"tkdc/internal/kdtree"
	"tkdc/internal/kernel"
	"tkdc/internal/points"
	"tkdc/internal/sample"
	"tkdc/internal/stats"
	"tkdc/internal/telemetry"
)

// thresholdBound is the outcome of Algorithm 3: probabilistic bounds on
// t(p) for the full-dataset KDE, valid with probability ≥ 1−δ.
type thresholdBound struct {
	lo, hi  float64
	rounds  int // bootstrap rounds run (including retries)
	queries QueryStats
	// spans traces each round (including retries): duration, kernel
	// evaluations, and the subsample size it trained on.
	spans []telemetry.Span
	// kern and tree index the full dataset. The first round with r = n
	// builds them, its retries reuse them, and TrainStore serves them.
	kern kernel.Kernel
	tree *kdtree.Tree
	// memo keeps the sampling backend's per-row trajectories when the
	// r = n rounds score the dataset itself (n ≤ S0): their retries
	// replay it, and TrainStore's refine passes after them.
	memo *estimator.Memo
}

// boundThreshold is Algorithm 3. It bootstraps bounds on the quantile
// threshold t(p) by training mini-KDEs on geometrically growing
// subsamples: quantile bounds estimated on a small subsample make density
// evaluation on the next, larger subsample cheap, because the pruning
// rules of Algorithm 2 can fire. Bounds that turn out invalid for the
// larger sample are multiplicatively backed off and the round retried.
//
// Each round's score loop fans the sample rows out across
// cfg.Workers goroutines with one private density backend per worker.
// Sampling (the only RNG consumer) stays sequential and each worker
// writes disjoint density slots, so the bounds are bit-identical to a
// single-threaded run; per-worker QueryStats are summed afterwards,
// which is order-independent because the counters are plain sums.
//
// Rounds with r = n score against the full dataset itself: it is not
// copied (kdtree.Build copies what it reorders), and its kernel and tree
// are built once and kept in the result. When n ≤ S0 they also score
// every row of it, row i at slot i, so a memoising backend records each
// row's trajectory on the first such round and later passes replay it.
func boundThreshold(data *points.Store, cfg Config, rng *rand.Rand) (thresholdBound, error) {
	n := data.Len()
	res := thresholdBound{lo: 0, hi: math.Inf(1)}
	workers := effectiveWorkers(cfg.Workers)
	spanWorkers := workers
	if spanWorkers < 1 {
		spanWorkers = 1
	}

	r := cfg.R0
	if r > n {
		r = n
	}
	const maxRetriesPerRound = 25
	retries := 0
	// densities is reused across rounds: sEff only grows (up to S0), so
	// the buffer settles after a few rounds instead of reallocating per
	// round.
	var densities []float64
	for {
		res.rounds++
		roundStart := time.Now()
		kernelsBefore := res.queries.Kernels()
		xr := sampleRows(data, r, rng)
		kern, tree := res.kern, res.tree
		if r < n || tree == nil {
			var err error
			if kern, tree, err = buildIndex(xr, cfg); err != nil {
				return res, fmt.Errorf("core: threshold bootstrap: %w", err)
			}
			if r >= n {
				res.kern, res.tree = kern, tree
			}
		}

		sEff := cfg.S0
		if sEff > r {
			sEff = r
		}
		xs := sampleRows(xr, sEff, rng)

		// The bounds live in corrected-density space (Equation 1):
		// scoreRow shifts them by the self-contribution so the pruning
		// thresholds and the validity checks below refer to exactly the
		// same quantity.
		selfContrib := kern.AtZero() / float64(r)
		if cap(densities) < sEff {
			densities = make([]float64, sEff)
		}
		densities = densities[:sEff]
		newEst := func() DensityBackend {
			return newQueryBackend(tree, kern, cfg)
		}
		if sEff == n && res.memo == nil {
			if mb, ok := newEst().(memoBackend); ok {
				res.memo = mb.newMemo(n)
			}
		}
		scoreRange := func(est DensityBackend, lo, hi int, qs *QueryStats) {
			for i := lo; i < hi; i++ {
				densities[i] = scoreRow(est, res.memo, i, xs.Row(i), res.lo, res.hi, selfContrib, cfg.Epsilon, qs)
			}
		}
		if workers < 2 || sEff < 2*workers {
			scoreRange(newEst(), 0, sEff, &res.queries)
		} else {
			var wg sync.WaitGroup
			var mu sync.Mutex
			chunk := (sEff + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				if lo >= sEff {
					break
				}
				hi := lo + chunk
				if hi > sEff {
					hi = sEff
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					var qs QueryStats
					scoreRange(newEst(), lo, hi, &qs)
					mu.Lock()
					res.queries.add(qs)
					mu.Unlock()
				}(lo, hi)
			}
			wg.Wait()
		}
		sort.Float64s(densities)

		res.spans = append(res.spans, telemetry.Span{
			Name:     fmt.Sprintf("bootstrap/round-%02d", res.rounds),
			Duration: time.Since(roundStart),
			Kernels:  res.queries.Kernels() - kernelsBefore,
			Items:    int64(r),
			Workers:  spanWorkers,
		})

		l, u, err := stats.QuantileCIIndices(sEff, cfg.P, cfg.Delta)
		if err != nil {
			return res, fmt.Errorf("core: threshold bootstrap quantile CI: %w", err)
		}
		dl, _ := stats.SortedOrderStatistic(densities, l)
		du, _ := stats.SortedOrderStatistic(densities, u)

		// An order statistic is imprecise only if it fell where a pruning
		// rule could have clipped it: above a finite hi, or below a
		// positive lo (densities are non-negative, so lo ≤ 0 never prunes
		// the low side).
		switch {
		case du > res.hi:
			// Upper bound was too tight for this sample size. Relax past
			// the (over-estimated) order statistic we observed and retry
			// the round — bounds carried between rounds can be off by
			// many orders of magnitude (Section 3.5), so pure
			// multiplicative backoff would need dozens of retries. A
			// non-positive bound cannot be grown multiplicatively; give
			// up on that side entirely.
			res.hi = scaleTowardInf(math.Max(res.hi, du), cfg.HBackoff)
			if res.hi <= 0 || math.IsNaN(res.hi) {
				res.hi = math.Inf(1)
			}
			retries++
		case res.lo > 0 && dl < res.lo:
			res.lo = scaleTowardZero(math.Min(res.lo, dl), cfg.HBackoff)
			retries++
		default:
			if r >= n {
				// Final round ran against the full dataset: dl and du are
				// the 1−δ bounds on t(p) (Section 3.5). In extreme
				// dimensionality the corrected densities can cancel to
				// zero; a non-positive upper bound cannot prune and would
				// poison later passes, so it degrades to +Inf.
				res.lo = dl
				res.hi = du
				if res.hi <= 0 {
					res.hi = math.Inf(1)
				}
				return res, nil
			}
			res.hi = scaleTowardInf(du, cfg.HBuffer)
			if res.hi <= 0 {
				res.hi = math.Inf(1)
			}
			res.lo = scaleTowardZero(dl, cfg.HBuffer)
			retries = 0
			r = int(float64(r) * cfg.HGrowth)
			if r > n {
				r = n
			}
			continue
		}
		if retries > maxRetriesPerRound {
			// Degenerate data can defeat multiplicative backoff (e.g. a
			// previous lo of exactly 0 never shrinks). Fall back to
			// unbounded, which makes the next pass exact but safe.
			res.lo, res.hi = 0, math.Inf(1)
			retries = 0
		}
	}
}

// scoreRow bounds the density of training-pass row i, at x, and returns
// it corrected for the row's self-contribution. The pass's bounds
// [tl, tu] live in corrected-density space (Equation 1) while the
// backend prunes on plain densities, so they are shifted by the
// self-contribution; the tolerance target stays ε·t in corrected space.
// With a memo the row's trajectory from an earlier pass is replayed
// when it decides the new bounds.
func scoreRow(est DensityBackend, memo *estimator.Memo, i int, x []float64, tl, tu, selfContrib, epsilon float64, qs *QueryStats) float64 {
	tolCut := epsilon * math.Max(tl, 0)
	if memo != nil {
		if mb, ok := est.(memoBackend); ok {
			_, _, f := mb.boundDensityRow(memo, i, x, tl+selfContrib, tu+selfContrib, tolCut, qs)
			return f - selfContrib
		}
	}
	_, _, f := est.BoundDensity(x, tl+selfContrib, tu+selfContrib, tolCut, qs)
	return f - selfContrib
}

// scaleTowardInf multiplicatively loosens an upper bound (larger for
// positive values, closer to zero for negative ones).
func scaleTowardInf(x, factor float64) float64 {
	if x >= 0 {
		return x * factor
	}
	return x / factor
}

// scaleTowardZero multiplicatively loosens a lower bound (smaller for
// positive values, more negative for negative ones).
func scaleTowardZero(x, factor float64) float64 {
	if x >= 0 {
		return x / factor
	}
	return x * factor
}

// sampleRows draws k rows without replacement into a fresh store: the
// first k steps of a Fisher–Yates shuffle (sample.Slots), so the RNG
// consumption order matches the historical dense index-array
// implementation and trained models stay bit-identical. For k ≥ s.Len()
// it returns s itself and draws nothing; callers only read the result.
func sampleRows(s *points.Store, k int, rng *rand.Rand) *points.Store {
	if k >= s.Len() {
		return s
	}
	out := points.New(k, s.Dim)
	i := 0
	sample.Slots(rng, s.Len(), k, func(row int) {
		copy(out.Row(i), s.Row(row))
		i++
	})
	return out
}
