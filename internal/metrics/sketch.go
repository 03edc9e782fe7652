package metrics

import (
	"math"

	"github.com/approx-analytics/grass/internal/dist"
)

// Sketch is a mergeable streaming quantile sketch for job latencies — the
// telemetry substrate of the live serving mode (internal/serve). It is a
// DDSketch-style log-bucketed histogram (see Hist, the counts-only core it
// is built on): a value v > 0 lands in bucket ⌈log_γ v⌉ with
// γ = (1+α)/(1−α), which guarantees every reported quantile is within
// relative error α of an exact quantile of the observed multiset. On top
// of the histogram it keeps a running Sum, so mean latency is reportable
// alongside the quantiles.
//
// Two properties matter more here than raw accuracy:
//
//   - Merging is EXACT and deterministic: buckets are integer counts, so
//     Merge is bucket-wise addition — commutative, associative, and
//     loss-free. A sketch built from P per-partition sketches (merged in
//     any order, though the serving layer merges in canonical ascending
//     partition order) is bit-identical to one sketch fed the union of the
//     observations, so `-partitions P` latency reporting is deterministic
//     ("Sketch Disaggregation Across Time and Space" is the reference for
//     splitting sketch state this way).
//   - Observation is O(1) with no allocation on the steady state (one map
//     insert per previously unseen bucket), cheap enough to sit on the
//     per-job-completion path without touching the per-event hot path.
//
// The zero Sketch is not ready for use; call NewSketch. A Sketch is not
// safe for concurrent use — the serving layer guards each partition's
// sketch with its own mutex and merges copies.
type Sketch struct {
	hist dist.Hist
	// sum/sumComp are a Neumaier-compensated accumulator: sum holds the
	// running floating-point sum, sumComp the accumulated low-order bits
	// each addition rounded away. See Sum for why.
	sum, sumComp float64
}

// DefaultSketchAlpha is the relative-error guarantee the serving layer
// requests: reported quantiles are within 1% of an exact quantile.
const DefaultSketchAlpha = dist.DefaultHistAlpha

// NewSketch returns an empty sketch with relative-error guarantee alpha in
// (0, 1); alpha <= 0 selects DefaultSketchAlpha.
func NewSketch(alpha float64) *Sketch {
	return &Sketch{hist: *dist.NewHist(alpha)}
}

// Alpha returns the sketch's relative-error guarantee.
func (s *Sketch) Alpha() float64 { return s.hist.Alpha() }

// Observe records one value. Values ≤ 0 (or NaN, which compares false
// everywhere) collapse into the zero bucket and report as 0 from Quantile.
func (s *Sketch) Observe(v float64) {
	s.hist.Observe(v)
	s.add(v)
}

// add folds v into the compensated sum accumulator (Neumaier's variant of
// Kahan summation: the branch keeps the compensation exact whichever of
// the addends is larger in magnitude).
func (s *Sketch) add(v float64) {
	t := s.sum + v
	if math.Abs(s.sum) >= math.Abs(v) {
		s.sumComp += (s.sum - t) + v
	} else {
		s.sumComp += (v - t) + s.sum
	}
	s.sum = t
}

// Count returns how many values have been observed.
func (s *Sketch) Count() uint64 { return s.hist.Count() }

// Sum returns the running sum of observed values (mean = Sum/Count). The
// accumulator is Neumaier-compensated — each addition's rounding error is
// retained and folded back here — so the reported sum is the correctly
// rounded true sum for any realistic observation stream, and regrouping
// the observations across partitions (P per-partition sketches merged in
// any order versus one sketch fed everything) reproduces it exactly; the
// cross-partition regroup determinism test pins that.
func (s *Sketch) Sum() float64 { return s.sum + s.sumComp }

// Min returns the exact minimum observed value (0 when empty).
func (s *Sketch) Min() float64 { return s.hist.Min() }

// Max returns the exact maximum observed value (0 when empty).
func (s *Sketch) Max() float64 { return s.hist.Max() }

// Merge folds o into s: bucket-wise addition, so the result is exactly the
// sketch of the union of both observation multisets — quantiles, counts
// and extremes are identical to a single sketch fed every observation, and
// the compensated sum accumulators fold without losing either side's
// retained rounding error. Both sketches must have been built with the
// same alpha — bucket boundaries differ otherwise and the merged histogram
// would be meaningless; Merge panics on mismatch (a programming error, not
// a data condition). Merging an empty or nil sketch is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	if o.hist.Alpha() != s.hist.Alpha() {
		panic("metrics: merging sketches with different alpha")
	}
	if o.hist.Count() == 0 {
		return
	}
	s.hist.Merge(&o.hist)
	s.add(o.sum)
	s.add(o.sumComp)
}

// Clone returns an independent copy — the serving layer snapshots each
// partition's sketch under its lock and merges the copies outside it.
func (s *Sketch) Clone() *Sketch {
	return &Sketch{hist: *s.hist.Clone(), sum: s.sum, sumComp: s.sumComp}
}

// Quantile returns the value at quantile q in [0, 1], within relative
// error alpha of an exact quantile of the observed multiset. Extremes are
// exact: q = 0 reports Min and q = 1 reports Max. An empty sketch reports
// 0; q outside [0, 1] is clamped.
func (s *Sketch) Quantile(q float64) float64 { return s.hist.Quantile(q) }
