package core

import (
	"math"
	"testing"

	"github.com/approx-analytics/grass/internal/task"
)

// mkCurve builds a linear curve reaching frac `final` at time `dur`.
func mkCurve(dur, final float64) *Curve {
	var c Curve
	for i := 1; i <= 10; i++ {
		c.Add(dur*float64(i)/10, final*float64(i)/10)
	}
	return &c
}

// meanDuration is the mean duration of the samples match selects for a
// query (an mkCurve sample's duration is its final time); ok is false when
// nothing matches.
func meanDuration(l *Learner, p samplePolicy, bin task.SizeBin, waves, estAcc float64) (float64, bool) {
	ms := l.match(bin, p, waves, estAcc)
	if len(ms) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, s := range ms {
		t, _ := s.curve.Final()
		sum += t
	}
	return sum / float64(len(ms)), true
}

func TestBuckets(t *testing.T) {
	if wavesBucket(0.5) != 0 || wavesBucket(1) != 0 || wavesBucket(1.5) != 1 ||
		wavesBucket(3) != 2 || wavesBucket(10) != 3 {
		t.Fatal("waves bucketing wrong")
	}
	if accBucket(0.5) != 0 || accBucket(0.7) != 1 || accBucket(0.9) != 2 {
		t.Fatal("accuracy bucketing wrong")
	}
}

func TestLearnerRecordAndPredict(t *testing.T) {
	l := NewLearner(AllFactors())
	if _, ok := l.Aggregate(sampleGS, task.Small, 2, 0.7); ok {
		t.Fatal("empty learner aggregated")
	}
	l.Record(sampleGS, task.Small, 2, 0.7, mkCurve(10, 1))
	if l.Samples(task.Small, sampleGS) != 1 {
		t.Fatal("sample not stored")
	}
	c, ok := l.Aggregate(sampleGS, task.Small, 2, 0.7)
	if !ok {
		t.Fatal("aggregate failed")
	}
	if got := c.FracAt(5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("FracAt(5) = %v, want 0.5", got)
	}
	if got := c.TimeToFrac(0.5); math.Abs(got-5) > 1e-9 {
		t.Fatalf("TimeToFrac(0.5) = %v, want 5", got)
	}
}

func TestLearnerAverages(t *testing.T) {
	l := NewLearner(AllFactors())
	l.Record(sampleRAS, task.Medium, 2, 0.7, mkCurve(10, 1))
	l.Record(sampleRAS, task.Medium, 2, 0.7, mkCurve(20, 1))
	c, ok := l.Aggregate(sampleRAS, task.Medium, 2, 0.7)
	if !ok {
		t.Fatal("aggregate failed")
	}
	if got := c.FracAt(10); math.Abs(got-0.75) > 1e-9 { // (1.0 + 0.5)/2
		t.Fatalf("average prediction %v, want 0.75", got)
	}
}

func TestLearnerIgnoresEmptyCurves(t *testing.T) {
	l := NewLearner(AllFactors())
	l.Record(sampleGS, task.Small, 2, 0.7, &Curve{})
	l.Record(sampleGS, task.Small, 2, 0.7, nil)
	if l.Samples(task.Small, sampleGS) != 0 {
		t.Fatal("empty curve stored")
	}
}

func TestLearnerRingEviction(t *testing.T) {
	l := NewLearner(AllFactors())
	for i := 0; i < 200; i++ {
		l.Record(sampleGS, task.Large, 2, 0.7, mkCurve(float64(i+1), 1))
	}
	if got := l.Samples(task.Large, sampleGS); got != l.maxPerKey {
		t.Fatalf("ring holds %d, want %d", got, l.maxPerKey)
	}
}

func TestLearnerSeparatesPoliciesAndBins(t *testing.T) {
	l := NewLearner(AllFactors())
	l.Record(sampleGS, task.Small, 2, 0.7, mkCurve(10, 1))
	l.Record(sampleRAS, task.Small, 2, 0.7, mkCurve(100, 1))
	l.Record(sampleGS, task.Large, 2, 0.7, mkCurve(1000, 1))
	gsT, _ := meanDuration(l, sampleGS, task.Small, 2, 0.7)
	rasT, _ := meanDuration(l, sampleRAS, task.Small, 2, 0.7)
	lgT, _ := meanDuration(l, sampleGS, task.Large, 2, 0.7)
	if gsT != 10 || rasT != 100 || lgT != 1000 {
		t.Fatalf("cross-contamination: %v %v %v", gsT, rasT, lgT)
	}
}

func TestLearnerFactorMatching(t *testing.T) {
	l := NewLearner(AllFactors())
	// Three samples in waves-bucket 1 (≤2 waves), fast; three in bucket 3
	// (>4 waves), slow. Same accuracy bucket.
	for i := 0; i < 3; i++ {
		l.Record(sampleGS, task.Medium, 2, 0.9, mkCurve(10, 1))
		l.Record(sampleGS, task.Medium, 10, 0.9, mkCurve(100, 1))
	}
	fast, ok := meanDuration(l, sampleGS, task.Medium, 2, 0.9)
	if !ok || fast != 10 {
		t.Fatalf("waves=2 prediction %v, want 10 (only fast samples)", fast)
	}
	slow, ok := meanDuration(l, sampleGS, task.Medium, 10, 0.9)
	if !ok || slow != 100 {
		t.Fatalf("waves=10 prediction %v, want 100 (only slow samples)", slow)
	}
}

func TestLearnerFactorDisabled(t *testing.T) {
	// With Utilization disabled, waves must not filter: predictions mix.
	l := NewLearner(FactorSet{})
	for i := 0; i < 3; i++ {
		l.Record(sampleGS, task.Medium, 2, 0.9, mkCurve(10, 1))
		l.Record(sampleGS, task.Medium, 10, 0.9, mkCurve(100, 1))
	}
	got, ok := meanDuration(l, sampleGS, task.Medium, 2, 0.9)
	if !ok || math.Abs(got-55) > 1e-9 {
		t.Fatalf("Best-1 prediction %v, want mixed 55", got)
	}
}

func TestLearnerFallbackWhenBucketSparse(t *testing.T) {
	l := NewLearner(AllFactors())
	// Plenty of samples, but none in the queried (waves, acc) bucket.
	for i := 0; i < 5; i++ {
		l.Record(sampleRAS, task.Small, 10, 0.9, mkCurve(50, 1))
	}
	got, ok := meanDuration(l, sampleRAS, task.Small, 1, 0.5)
	if !ok || got != 50 {
		t.Fatalf("fallback prediction %v ok=%v, want 50", got, ok)
	}
}

func TestAggregateAveragesAndCaches(t *testing.T) {
	l := NewLearner(AllFactors())
	if _, ok := l.Aggregate(sampleGS, task.Small, 2, 0.7); ok {
		t.Fatal("empty learner aggregated")
	}
	l.Record(sampleGS, task.Small, 2, 0.7, mkCurve(10, 1))
	l.Record(sampleGS, task.Small, 2, 0.7, mkCurve(20, 1))
	c, ok := l.Aggregate(sampleGS, task.Small, 2, 0.7)
	if !ok {
		t.Fatal("aggregate failed")
	}
	// At t=10 the first curve is done (1.0), the second halfway (0.5).
	if got := c.FracAt(10); math.Abs(got-0.75) > 0.06 {
		t.Fatalf("aggregate FracAt(10) = %v, want ~0.75", got)
	}
	// Cached pointer until the next Record.
	c2, _ := l.Aggregate(sampleGS, task.Small, 2, 0.7)
	if c2 != c {
		t.Fatal("aggregate not cached")
	}
	l.Record(sampleGS, task.Small, 2, 0.7, mkCurve(30, 1))
	c3, _ := l.Aggregate(sampleGS, task.Small, 2, 0.7)
	if c3 == c {
		t.Fatal("cache not invalidated by Record")
	}
}

func TestAggregateMonotone(t *testing.T) {
	l := NewLearner(AllFactors())
	for i := 1; i <= 5; i++ {
		l.Record(sampleRAS, task.Medium, 3, 0.7, mkCurve(float64(i*7), 0.2*float64(i)))
	}
	c, ok := l.Aggregate(sampleRAS, task.Medium, 3, 0.7)
	if !ok {
		t.Fatal("aggregate failed")
	}
	prev := -1.0
	for tm := 0.0; tm <= 40; tm += 2 {
		v := c.FracAt(tm)
		if v < prev {
			t.Fatalf("aggregate not monotone at t=%v", tm)
		}
		prev = v
	}
}

func TestBucketsRejectNaN(t *testing.T) {
	// NaN compares false against every boundary: without the explicit
	// check it would fall through to the highest waves bucket and the
	// middle-ish accuracy bucket. A NaN factor input is an unknown and
	// must clamp to the lowest bucket instead.
	if got := wavesBucket(math.NaN()); got != 0 {
		t.Errorf("wavesBucket(NaN) = %d, want 0", got)
	}
	if got := accBucket(math.NaN()); got != 0 {
		t.Errorf("accBucket(NaN) = %d, want 0", got)
	}
	// And a NaN query must find samples recorded under NaN factors: both
	// land in bucket 0, so the exact stage matches.
	l := NewLearner(AllFactors())
	for i := 0; i < 3; i++ {
		l.Record(sampleGS, task.Small, math.NaN(), math.NaN(), mkCurve(10, 1))
	}
	got, ok := meanDuration(l, sampleGS, task.Small, math.NaN(), math.NaN())
	if !ok || got != 10 {
		t.Fatalf("NaN-factored query missed NaN-factored samples: %v ok=%v", got, ok)
	}
}

func TestLearnerRingWraparound(t *testing.T) {
	l := NewLearner(AllFactors())
	// Fill the ring exactly, then overwrite: the oldest slot (index 0)
	// is replaced first, so the mean prediction shifts deterministically.
	for i := 0; i < l.maxPerKey; i++ {
		l.Record(sampleGS, task.Large, 2, 0.9, mkCurve(10, 1))
	}
	l.Record(sampleGS, task.Large, 2, 0.9, mkCurve(100, 1))
	if got := l.Samples(task.Large, sampleGS); got != l.maxPerKey {
		t.Fatalf("ring grew past capacity: %d", got)
	}
	want := (float64(l.maxPerKey-1)*10 + 100) / float64(l.maxPerKey)
	got, ok := meanDuration(l, sampleGS, task.Large, 2, 0.9)
	if !ok || math.Abs(got-want) > 1e-9 {
		t.Fatalf("post-wraparound prediction %v, want %v", got, want)
	}
	// A full second lap leaves only the new samples.
	for i := 0; i < l.maxPerKey; i++ {
		l.Record(sampleGS, task.Large, 2, 0.9, mkCurve(100, 1))
	}
	got, ok = meanDuration(l, sampleGS, task.Large, 2, 0.9)
	if !ok || got != 100 {
		t.Fatalf("full lap did not evict every old sample: %v", got)
	}
}

func TestLearnerFallbackStages(t *testing.T) {
	l := NewLearner(AllFactors())
	// Three fast samples at (waves bucket 1, acc bucket 2); three slow at
	// (waves bucket 3, acc bucket 0).
	for i := 0; i < 3; i++ {
		l.Record(sampleGS, task.Medium, 2, 0.9, mkCurve(10, 1))
		l.Record(sampleGS, task.Medium, 10, 0.5, mkCurve(100, 1))
	}
	// Stage 1 (exact): query (wb1, ab2) hits the fast samples directly.
	if got, _ := meanDuration(l, sampleGS, task.Medium, 2, 0.9); got != 10 {
		t.Errorf("exact stage: %v, want 10", got)
	}
	// Stage 2 (relax accuracy): (wb1, ab0) has no exact match; waves-only
	// still isolates the fast samples.
	if got, _ := meanDuration(l, sampleGS, task.Medium, 2, 0.5); got != 10 {
		t.Errorf("relax-acc stage: %v, want 10", got)
	}
	// Stage 3 (relax waves): (wb2, ab2) matches nothing by waves; acc-only
	// isolates the fast samples.
	if got, _ := meanDuration(l, sampleGS, task.Medium, 3, 0.9); got != 10 {
		t.Errorf("relax-waves stage: %v, want 10", got)
	}
	// Stage 4 (all): (wb2, ab1) matches nothing by either factor; the
	// whole size bin mixes.
	if got, _ := meanDuration(l, sampleGS, task.Medium, 3, 0.7); got != 55 {
		t.Errorf("all stage: %v, want mixed 55", got)
	}
}

func TestLearnerEmptyFactorSetMatchesAll(t *testing.T) {
	// FactorSet{} builds no filter stages at all: even a single sample
	// (below minSamples) must match, because the stage loop is empty and
	// match falls straight through to the whole size bin.
	l := NewLearner(FactorSet{})
	l.Record(sampleRAS, task.Small, 10, 0.9, mkCurve(42, 1))
	got, ok := meanDuration(l, sampleRAS, task.Small, 1, 0.5)
	if !ok || got != 42 {
		t.Fatalf("empty factor set: %v ok=%v, want 42", got, ok)
	}
}
