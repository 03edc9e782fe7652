package dist

import "math"

// medianStack is the largest input Median selects over on the stack; a
// larger one is copied to the heap.
const medianStack = 256

// Median returns the middle value of s (mean of the middle two for even
// lengths), 0 for an empty slice. The input is not modified. It selects
// over a copy with KthSmallest, so it returns what sorting the copy with
// sort.Float64s would (NaNs first), and it allocates nothing for up to
// 256 values. Equal values are indistinguishable to it, so of a -0 and a
// +0 at the middle either may be the one returned.
func Median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	var buf [medianStack]float64
	var c []float64
	if n <= len(buf) {
		c = buf[:n]
	} else {
		c = make([]float64, n)
	}
	copy(c, s)
	k := n / 2
	hi := KthSmallest(c, k)
	if n%2 == 1 {
		return hi
	}
	// KthSmallest left the k smallest values in c[:k], so the lower middle
	// value is the largest of them.
	return (KthSmallest(c[:k], k-1) + hi) / 2
}

// KthSmallest returns the k-th smallest (0-based) of xs in sort.Float64s's
// order, NaNs first. It reorders xs so that xs[:k] holds the k smallest
// values and xs[k] the one returned. It is a quickselect with a three-way
// partition, so a run of equal values, such as a same-time burst of
// events, settles in one step instead of degrading it.
func KthSmallest(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)
	for {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		// Median of three; a NaN among them makes the pivot NaN, the
		// smallest value, which still splits off at least itself.
		pivot := max(min(a, b), min(max(a, b), c))
		// [lo, lt) < pivot, [lt, i) == pivot, [gt, hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case floatLess(x, pivot):
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case floatLess(pivot, x):
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return xs[k]
		}
	}
}

// floatLess orders float64s as sort.Float64s does: NaNs before every
// number, numbers ascending.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// Max returns the largest value of s, -Inf for an empty slice.
func Max(s []float64) float64 {
	m := math.Inf(-1)
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// StdDev returns the sample standard deviation (n−1 denominator) of s,
// 0 for fewer than two values.
func StdDev(s []float64) float64 {
	n := len(s)
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range s {
		mean += v
	}
	mean /= float64(n)
	ss := 0.0
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}
