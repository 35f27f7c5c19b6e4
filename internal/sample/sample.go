// Package sample draws uniform samples without replacement from an
// index range, for the training bootstrap's subsamples and the stream
// reservoirs' snapshots and probes.
package sample

import (
	"math"
	"math/bits"
	"math/rand"
)

// Slots visits k distinct uniformly drawn slots of [0, n), k ≤ n, in
// draw order. It runs the first k steps of a Fisher–Yates shuffle,
// tracking only displaced slots: a dense map of the whole index space
// is never built, so the allocation cost is O(k) however large n is.
// For draws dense enough that the table would cost more than the
// permutation it avoids, it falls back to the classic array shuffle.
// Both paths consume rng identically (one Intn per draw) and emit the
// same slots for the same seed.
func Slots(rng *rand.Rand, n, k int, visit func(slot int)) {
	if k*4 >= n || n > math.MaxInt32 {
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
	// The displaced slots live in an open-addressed table of
	// (position+1, slot) int32 pairs, 0 marking an empty cell, with
	// Fibonacci hashing and linear probing. Each draw inserts at most one
	// position and nothing is deleted — no position below j is probed
	// again — so at a power-of-two size ≥ 2k the table is never more
	// than half full.
	logSize := bits.Len(uint(2 * k))
	mask := 1<<logSize - 1
	tab := make([]int32, 2<<logSize)
	cell := func(pos int) int {
		i := int(uint32(pos)*0x9e3779b1>>(32-logSize)) & mask
		for tab[2*i] != 0 && tab[2*i] != int32(pos+1) {
			i = (i + 1) & mask
		}
		return 2 * i
	}
	slotAt := func(c, pos int) int {
		if tab[c] != 0 {
			return int(tab[c+1])
		}
		return pos
	}
	for j := 0; j < k; j++ {
		l := j + rng.Intn(n-j)
		sj := slotAt(cell(j), j)
		cl := cell(l)
		sl := slotAt(cl, l)
		tab[cl], tab[cl+1] = int32(l+1), int32(sj)
		visit(sl)
	}
}
