package estimator

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// replayPath names how a fresh BoundDensity ended for a query.
type replayPath int

const (
	pathSampled  replayPath = iota // far rounds under the stop rule
	pathTiny                       // whole-dataset sweep: tree.Size ≤ 2·MinSamples
	pathNoFar                      // near phase left no far rows
	pathSmallFar                   // far field summed exactly: far.count ≤ MinSamples
	numPaths
)

func (s *Sampler) lastPath(w Work) replayPath {
	switch {
	case s.tree.Size <= 2*s.minSamples:
		return pathTiny
	case w.FarRounds > 0:
		return pathSampled
	case s.far.count == 0:
		return pathNoFar
	default:
		return pathSmallFar
	}
}

// replayBounds is one pass's stopping arguments.
type replayBounds struct{ tl, tu, tolCut float64 }

// variants derives the stopping arguments of later passes from a
// recorded pass's: nested (tighter) and widened (looser) threshold
// bands, bands disjoint from it on either side, the same band without a
// tolerance target, and a band drawn afresh around the query's density.
func variants(rng *rand.Rand, b replayBounds, scale float64) []replayBounds {
	mid := 0.5 * (b.tl + b.tu)
	fresh := func() replayBounds {
		lo := scale * rng.Float64() * 2
		return replayBounds{lo, lo + scale*rng.Float64(), scale * rng.Float64() * 0.2}
	}
	return []replayBounds{
		{mid - 0.25*(b.tu-b.tl), mid + 0.25*(b.tu-b.tl), 2 * b.tolCut},
		{b.tl * 0.5, b.tu * 2, 0.5 * b.tolCut},
		{b.tu * 2, b.tu * 4, b.tolCut},
		{b.tl * 0.1, b.tl * 0.5, b.tolCut},
		{b.tl, b.tu, 0},
		fresh(),
		fresh(),
	}
}

// TestReplayMatchesBoundDensity is the property behind trajectory
// replay: for random queries and random stopping arguments, every
// Replay hit equals a fresh BoundDensity bit for bit, a miss happens
// only on a trajectory that neither ended exactly nor reached the
// sample budget, and Record — which misses fall back to — equals
// BoundDensity in results and work. Rows are split across goroutines,
// with a different split on every pass, over one shared Memo (run under
// -race). The cases cover both stopping rules disabled in turn and all
// three exact paths.
func TestReplayMatchesBoundDensity(t *testing.T) {
	cases := []struct {
		name  string
		n, d  int
		scale float64 // query spread; far outliers empty the far field
		opts  Options
	}{
		{"d12", 4000, 12, 1, Options{Seed: 3}},
		{"d12-threshold-off", 4000, 12, 1, Options{Seed: 4, DisableThreshold: true}},
		{"d12-tolerance-off", 4000, 12, 1, Options{Seed: 5, DisableTolerance: true}},
		{"d4-wide-near", 3000, 4, 1, Options{Seed: 6, NearNodes: 5000, MinSamples: 1400, MaxSamples: 3000}},
		{"d6-outliers", 3000, 6, 40, Options{Seed: 7}},
		{"tiny", 400, 8, 1, Options{Seed: 8}},
	}
	const rows, goroutines = 96, 4
	var paths [numPaths]int
	hits, misses := 0, 0
	for _, tc := range cases {
		tree, kern := buildIndex(t, 21, tc.n, tc.d)
		rng := rand.New(rand.NewSource(int64(tc.n + tc.d)))
		queries := make([][]float64, rows)
		for i := range queries {
			q := make([]float64, tc.d)
			spread := 1.0
			if i%3 == 0 {
				spread = tc.scale
			}
			for j := range q {
				q[j] = rng.NormFloat64() * spread
			}
			queries[i] = q
		}
		// The density scale each query's bounds are drawn around.
		probe := New(tree, kern, tc.opts)
		scale := make([]float64, rows)
		for i, q := range queries {
			var w Work
			_, _, est := probe.BoundDensity(q, 0, 0, 0, &w)
			paths[probe.lastPath(w)]++
			scale[i] = math.Max(est, 1e-300)
		}
		// Pass 0 records; every later pass replays one variant of it.
		var passes [][]replayBounds
		for i := 0; i < rows; i++ {
			lo := scale[i] * (0.2 + rng.Float64())
			rec := replayBounds{lo, lo + scale[i]*rng.Float64(), scale[i] * 0.05 * float64(rng.Intn(3))}
			for p, b := range append([]replayBounds{rec}, variants(rng, rec, scale[i])...) {
				if i == 0 {
					passes = append(passes, make([]replayBounds, rows))
				}
				passes[p][i] = b
			}
		}

		memo := probe.NewMemo(rows)
		for p, pass := range passes {
			var wg sync.WaitGroup
			var mu sync.Mutex
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s := New(tree, kern, tc.opts)
					fresh := New(tree, kern, tc.opts)
					h, m := 0, 0
					for i := (g + p) % goroutines; i < rows; i += goroutines {
						b := pass[i]
						var wf Work
						fl, fu, est := fresh.BoundDensity(queries[i], b.tl, b.tu, b.tolCut, &wf)
						if p > 0 {
							rfl, rfu, rest, ok := s.Replay(memo, i, b.tl, b.tu, b.tolCut)
							if ok {
								h++
								sameBits(t, tc.name, "replay", i, [3]float64{rfl, rfu, rest}, [3]float64{fl, fu, est})
								continue
							}
							m++
							meta := memo.meta[i]
							if meta&memoFinal != 0 || int(meta) == memo.rounds {
								t.Errorf("%s row %d: Replay missed on a final trajectory (meta %#x)", tc.name, i, meta)
							}
						}
						var wr Work
						rfl, rfu, rest := s.Record(queries[i], b.tl, b.tu, b.tolCut, memo, i, &wr)
						sameBits(t, tc.name, "record", i, [3]float64{rfl, rfu, rest}, [3]float64{fl, fu, est})
						if wr != wf {
							t.Errorf("%s row %d: Record work %+v, BoundDensity %+v", tc.name, i, wr, wf)
						}
						if _, _, _, ok := s.Replay(memo, i, b.tl, b.tu, b.tolCut); !ok {
							t.Errorf("%s row %d: Replay missed the arguments it was just recorded under", tc.name, i)
						}
					}
					mu.Lock()
					hits += h
					misses += m
					mu.Unlock()
				}(g)
			}
			wg.Wait()
		}
	}
	t.Logf("paths %v, replay hits %d, misses %d", paths, hits, misses)
	for p, c := range paths {
		if c == 0 {
			t.Errorf("no query took path %d; the cases no longer cover it", p)
		}
	}
	if hits == 0 || misses == 0 {
		t.Errorf("replay hits %d, misses %d: both must occur", hits, misses)
	}
}

func sameBits(t *testing.T, name, what string, row int, got, want [3]float64) {
	t.Helper()
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Errorf("%s row %d: %s (fl, fu, est) = %v, BoundDensity %v", name, row, what, got, want)
			return
		}
	}
}
