package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestKthSmallest holds the selection to a sort on inputs full of repeats
// (the same-time event bursts the calendar queue's width rule must not
// degrade on) and holding NaNs, which sort first.
func TestKthSmallest(t *testing.T) {
	f := func(raw []uint8, k uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r % 8)
			if r%8 == 7 {
				xs[i] = math.NaN()
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		kk := int(k) % len(xs)
		got := KthSmallest(xs, kk)
		if math.Float64bits(got) != math.Float64bits(sorted[kk]) {
			return false
		}
		// xs[:kk] holds the kk smallest values: sorted, they are sorted's
		// prefix.
		head := append([]float64(nil), xs[:kk]...)
		sort.Float64s(head)
		for i, v := range head {
			if math.Float64bits(v) != math.Float64bits(sorted[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// sortedMedian is Median's definition: sort a copy, take the middle value
// or the mean of the middle two.
func sortedMedian(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// TestMedianMatchesSort: Median equals the sort-based definition bit for
// bit on random, tie-dense and NaN-holding inputs of odd and even length,
// on both sides of the stack buffer's size, and leaves its input alone.
func TestMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draws := map[string]func() float64{
		"random":    func() float64 { return rng.NormFloat64() * 1e3 },
		"tie-dense": func() float64 { return float64(rng.Intn(4)) },
		"nan": func() float64 {
			if rng.Intn(3) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(10)) + 0.5
		},
	}
	for name, draw := range draws {
		for _, n := range []int{1, 2, 3, 4, 7, 8, 255, 256, 257, 600, 601} {
			for rep := 0; rep < 20; rep++ {
				s := make([]float64, n)
				for i := range s {
					s[i] = draw()
				}
				orig := append([]float64(nil), s...)
				got, want := Median(s), sortedMedian(s)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d: Median = %v (%#x), sorted definition %v (%#x)",
						name, n, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				for i := range s {
					if math.Float64bits(s[i]) != math.Float64bits(orig[i]) {
						t.Fatalf("%s n=%d: Median reordered its input", name, n)
					}
				}
			}
		}
	}
}

// TestMedianAllocs: up to 256 values Median selects on the stack.
func TestMedianAllocs(t *testing.T) {
	for _, n := range []int{1, 2, 17, 255, 256} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64((i * 7919) % 101)
		}
		var sink float64
		if allocs := testing.AllocsPerRun(100, func() { sink += Median(s) }); allocs != 0 {
			t.Errorf("Median of %d values: %v allocs, want 0", n, allocs)
		}
		_ = sink
	}
}
