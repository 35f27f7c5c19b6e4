// Package sample draws uniform samples without replacement from an
// index range, for the training bootstrap's subsamples and the stream
// reservoirs' snapshots and probes.
package sample

import "math/rand"

// Slots visits k distinct uniformly drawn slots of [0, n), k ≤ n, in
// draw order. It runs the first k steps of a Fisher–Yates shuffle,
// tracking only displaced slots: a dense map of the whole index space
// is never built, so the allocation cost is O(k) however large n is.
// For draws dense enough that the map would cost more than the
// permutation it avoids, it falls back to the classic array shuffle.
// Both paths consume rng identically (one Intn per draw) and emit the
// same slots for the same seed.
func Slots(rng *rand.Rand, n, k int, visit func(slot int)) {
	if k*4 >= n {
		idx := make([]int, n)
		for j := range idx {
			idx[j] = j
		}
		for j := 0; j < k; j++ {
			l := j + rng.Intn(n-j)
			idx[j], idx[l] = idx[l], idx[j]
			visit(idx[j])
		}
		return
	}
	displaced := make(map[int]int, 2*k)
	slotAt := func(pos int) int {
		if v, ok := displaced[pos]; ok {
			return v
		}
		return pos
	}
	for j := 0; j < k; j++ {
		l := j + rng.Intn(n-j)
		sj, sl := slotAt(j), slotAt(l)
		displaced[l] = sj
		delete(displaced, j) // position j is never probed again
		visit(sl)
	}
}
