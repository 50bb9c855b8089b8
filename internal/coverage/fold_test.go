package coverage

import (
	"math/rand"
	"slices"
	"testing"
)

// foldRef is the byte-wise reference for Fold: one slot at a time, the way
// Algorithm 1 states the comparison.
func foldRef(curr, last, seen []uint8) (metric int, fresh []int) {
	for b, c := range curr {
		if c != 0 && seen[b] == 0 {
			seen[b] = 1
			fresh = append(fresh, b)
		}
		if last != nil && c != last[b] {
			metric++
			last[b] = c
		}
	}
	return metric, fresh
}

// randBits returns n random 0/1 slots, each set with probability p.
func randBits(rng *rand.Rand, n int, p float64) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		if rng.Float64() < p {
			out[i] = 1
		}
	}
	return out
}

// TestFoldMatchesByteReference checks the word-parallel Fold against the
// byte-wise reference on random 0/1 arrays of every length 0–300 (so every
// tail length 0–7 occurs many times), with and without last, at sparse and
// dense hit rates: same metric, same last and seen afterwards, same
// ascending list of newly seen slots.
func TestFoldMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		for trial := 0; trial < 8; trial++ {
			p := []float64{0.02, 0.3, 0.7, 1}[trial%4]
			curr := randBits(rng, n, p)
			seen := randBits(rng, n, p)
			var last []uint8
			if trial >= 2 {
				last = randBits(rng, n, p)
			}
			wantLast, wantSeen := slices.Clone(last), slices.Clone(seen)
			wantMetric, wantFresh := foldRef(curr, wantLast, wantSeen)

			gotMetric, gotFresh := Fold(curr, last, seen, nil)
			if gotMetric != wantMetric {
				t.Fatalf("n=%d trial %d: metric %d, want %d", n, trial, gotMetric, wantMetric)
			}
			if !slices.Equal(last, wantLast) {
				t.Fatalf("n=%d trial %d: last %v, want %v", n, trial, last, wantLast)
			}
			if !slices.Equal(seen, wantSeen) {
				t.Fatalf("n=%d trial %d: seen %v, want %v", n, trial, seen, wantSeen)
			}
			if !slices.Equal(gotFresh, wantFresh) {
				t.Fatalf("n=%d trial %d: fresh %v, want %v", n, trial, gotFresh, wantFresh)
			}
		}
	}
}

// TestFoldAppendsToFresh: Fold appends to the caller's slice rather than
// overwriting it, and a second fold of the same iteration finds nothing.
func TestFoldAppendsToFresh(t *testing.T) {
	curr := []uint8{0, 1, 0, 0, 0, 0, 0, 0, 0, 1}
	last := make([]uint8, len(curr))
	seen := make([]uint8, len(curr))
	metric, fresh := Fold(curr, last, seen, []int{7})
	if metric != 2 || !slices.Equal(fresh, []int{7, 1, 9}) {
		t.Fatalf("first fold: metric %d fresh %v", metric, fresh)
	}
	metric, fresh = Fold(curr, last, seen, nil)
	if metric != 0 || len(fresh) != 0 {
		t.Fatalf("repeat fold: metric %d fresh %v, want 0 and none", metric, fresh)
	}
}
