package sample

import (
	"fmt"
	"math/rand"
	"testing"
)

// denseSlots is the oracle: the first k steps of a Fisher–Yates shuffle
// over a materialized index array.
func denseSlots(rng *rand.Rand, n, k int) []int {
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	out := make([]int, 0, k)
	for j := 0; j < k; j++ {
		l := j + rng.Intn(n-j)
		idx[j], idx[l] = idx[l], idx[j]
		out = append(out, idx[j])
	}
	return out
}

// TestSlotsMatchesDenseShuffle pins Slots to the dense shuffle on both
// sides of the sparse/dense crossover: for the same seed it must emit
// the same slots in the same order, all distinct and in range.
func TestSlotsMatchesDenseShuffle(t *testing.T) {
	cases := [][2]int{{1, 0}, {1, 1}, {7, 3}, {100, 1}, {1000, 249}, {1000, 250}, {5000, 100}, {100_000, 3000}, {100_000, 20_000}, {64, 64}}
	for _, c := range cases {
		n, k := c[0], c[1]
		t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				want := denseSlots(rand.New(rand.NewSource(seed)), n, k)
				var got []int
				Slots(rand.New(rand.NewSource(seed)), n, k, func(slot int) { got = append(got, slot) })
				if len(got) != k {
					t.Fatalf("seed %d: visited %d slots, want %d", seed, len(got), k)
				}
				seen := make(map[int]bool, k)
				for i, s := range got {
					if s != want[i] {
						t.Fatalf("seed %d draw %d: slot %d, dense shuffle %d", seed, i, s, want[i])
					}
					if s < 0 || s >= n || seen[s] {
						t.Fatalf("seed %d draw %d: slot %d out of range or repeated", seed, i, s)
					}
					seen[s] = true
				}
			}
		})
	}
}

// BenchmarkSlots draws k of n = 100k slots at densities from the sparse
// regime to just below the k = n/4 switch to the dense shuffle, the
// range where the displaced-slot table competes with the permutation.
func BenchmarkSlots(b *testing.B) {
	const n = 100_000
	for _, frac := range []struct {
		name string
		div  float64
	}{{"k=n/1000", 1000}, {"k=n/60", 60}, {"k=n/8", 8}, {"k=n/4.1", 4.1}} {
		k := int(n / frac.div)
		b.Run(frac.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			sum := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Slots(rng, n, k, func(slot int) { sum += slot })
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}
