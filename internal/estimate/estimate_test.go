package estimate

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/approx-analytics/grass/internal/dist"
)

func newTest(t *testing.T, cfg Config) *Estimator {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{TRemNoise: -1},
		{TNewNoise: -1},
		// NaN passes every ordered comparison, so each float field must
		// reject it explicitly; ±Inf passes one-sided range checks.
		{TRemNoise: nan},
		{TNewNoise: nan},
		{TRemNoise: inf},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	good := []Config{{}, {TRemNoise: 0.4, TNewNoise: 0.15}}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
}

// TestPerfectEstimates: with zero noise both bias draws are exactly 1, so
// a t_new estimate (median × work × bias) is the median scaled by work.
func TestPerfectEstimates(t *testing.T) {
	e, r := newTest(t, Config{}), dist.NewRNG(1)
	if got := e.SampleTRemBias(r); got != 1 {
		t.Fatalf("zero-noise t_rem bias = %v, want 1", got)
	}
	if got := e.SampleTNewBias(r); got != 1 {
		t.Fatalf("zero-noise t_new bias = %v, want 1", got)
	}
	if *r != *dist.NewRNG(1) {
		t.Fatal("a zero-noise bias consumed the stream")
	}
	e.ObserveCompletion(2.0)
	if got := e.NormalizedMedian() * 3 * e.SampleTNewBias(r); math.Abs(got-6) > 1e-12 {
		t.Fatalf("t_new of work 3 with median 2 = %v, want 6", got)
	}
}

func TestPriorUsedBeforeCompletions(t *testing.T) {
	e := newTest(t, Config{})
	if got := e.NormalizedMedian(); got != prior {
		t.Fatalf("cold-start median = %v, want the prior %v", got, prior)
	}
}

func TestMedianTracksCompletions(t *testing.T) {
	e := newTest(t, Config{})
	for _, v := range []float64{1, 100, 3} {
		e.ObserveCompletion(v)
	}
	if got := e.NormalizedMedian(); got != 3 {
		t.Fatalf("median %v, want 3", got)
	}
	e.ObserveCompletion(5)
	if got := e.NormalizedMedian(); got != 4 {
		t.Fatalf("median of {1,3,5,100} = %v, want 4", got)
	}
}

func TestWindowEviction(t *testing.T) {
	e := newTest(t, Config{})
	// Fill with large values, then push enough small ones to evict them all.
	for i := 0; i < window; i++ {
		e.ObserveCompletion(100)
	}
	for i := 0; i < window; i++ {
		e.ObserveCompletion(1)
	}
	if got := e.NormalizedMedian(); got != 1 {
		t.Fatalf("median after eviction %v, want 1", got)
	}
	if e.Completions() != window {
		t.Fatalf("window holds %d, want %d", e.Completions(), window)
	}
}

// TestSortedRemoveMissingPanics pins the divergence guard: evicting a value
// the sorted mirror does not hold means the mirror and the ring buffer have
// drifted apart, and every later median would be silently wrong. The old
// code no-oped here; it must panic.
func TestSortedRemoveMissingPanics(t *testing.T) {
	e := newTest(t, Config{})
	e.ObserveCompletion(1)
	e.ObserveCompletion(2)
	defer func() {
		if recover() == nil {
			t.Fatal("replacing a missing value did not panic")
		}
	}()
	e.sortedReplace(123.456, 1)
}

// TestSortedReplaceMatchesTwoSteps holds the one-shift eviction to removing
// the evicted value and inserting the new one, on random streams drawn from
// small alphabets so that duplicates, replacing a value by an equal one and
// evictions at both ends are frequent, and on continuous values.
func TestSortedReplaceMatchesTwoSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		e := newTest(t, Config{})
		var ref []float64 // the mirror by remove-then-insert
		alphabet := 1 + rng.Intn(12)
		draw := func() float64 {
			if trial%4 == 0 {
				return 0.01 + rng.ExpFloat64()
			}
			return float64(1 + rng.Intn(alphabet))
		}
		for k := 0; k < 3*window; k++ {
			v := draw()
			if len(ref) == window {
				old := e.window[e.next]
				i := sort.SearchFloat64s(ref, old)
				ref = append(ref[:i], ref[i+1:]...)
			}
			i := sort.SearchFloat64s(ref, v)
			ref = append(ref, 0)
			copy(ref[i+1:], ref[i:])
			ref[i] = v
			e.ObserveCompletion(v)
			if k%37 == 0 || k >= window {
				if !slices.Equal(e.sorted, ref) {
					t.Fatalf("trial %d step %d: mirror %v, two-step %v", trial, k, e.sorted, ref)
				}
			}
		}
	}
}

func TestNonPositiveCompletionsIgnored(t *testing.T) {
	e := newTest(t, Config{})
	e.ObserveCompletion(0)
	e.ObserveCompletion(-3)
	if e.Completions() != 0 {
		t.Fatal("non-positive completions recorded")
	}
	if e.NormalizedMedian() != prior {
		t.Fatal("prior lost after ignored completions")
	}
}

// TestNoiseStaysPositive: absurd noise still floors every bias at 0.05,
// and the floor is reached.
func TestNoiseStaysPositive(t *testing.T) {
	e, r := newTest(t, Config{TRemNoise: 2.0, TNewNoise: 2.0}), dist.NewRNG(6)
	floored := 0
	for i := 0; i < 10000; i++ {
		for _, v := range []float64{e.SampleTRemBias(r), e.SampleTNewBias(r)} {
			if v < 0.05 {
				t.Fatalf("bias %v below the 0.05 floor", v)
			}
			if v == 0.05 {
				floored++
			}
		}
	}
	if floored == 0 {
		t.Fatal("sigma 2 never hit the 0.05 floor")
	}
}

func TestNoiseMagnitude(t *testing.T) {
	// With sigma=0.45 the measured accuracy should land near the paper's
	// ~72%; this also exercises the Record/Accuracy loop end to end.
	e, r := newTest(t, Config{TRemNoise: 0.45}), dist.NewRNG(7)
	for i := 0; i < 20000; i++ {
		actual := 10.0
		e.RecordTRem(actual*e.SampleTRemBias(r), actual)
	}
	acc := e.TRemAccuracy()
	if acc < 0.6 || acc > 0.8 {
		t.Fatalf("measured TRem accuracy %v, want ≈0.72", acc)
	}
}

func TestAccuracyScoring(t *testing.T) {
	e := newTest(t, Config{})
	e.RecordTNew(10, 10) // perfect
	if got := e.TNewAccuracy(); got != 1 {
		t.Fatalf("perfect estimate scored %v", got)
	}
	e.RecordTNew(0, 10) // 100% off
	if got := e.TNewAccuracy(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mean accuracy %v, want 0.5", got)
	}
	e.RecordTNew(30, 10) // >100% off clamps to 0
	if got := e.TNewAccuracy(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("mean accuracy %v, want 1/3", got)
	}
}

func TestDefaultAccuracyBeforeData(t *testing.T) {
	e := newTest(t, Config{})
	if e.TRemAccuracy() != 0.5 || e.TNewAccuracy() != 0.5 || e.Accuracy() != 0.5 {
		t.Fatal("cold-start accuracy should be 0.5")
	}
}

func TestCombinedAccuracy(t *testing.T) {
	e := newTest(t, Config{})
	e.RecordTRem(10, 10) // 1.0
	e.RecordTNew(15, 10) // 0.5
	if got := e.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("combined accuracy %v, want 0.75", got)
	}
}

// TestTNewUsesScale: the t_new bias is drawn independently of the median
// and the work scale, so one task's estimate is linear in its scale and
// completions never shift the bias draws.
func TestTNewUsesScale(t *testing.T) {
	cold, cr := newTest(t, Config{TNewNoise: 0.15}), dist.NewRNG(11)
	e, r := newTest(t, Config{TNewNoise: 0.15}), dist.NewRNG(11)
	e.ObserveCompletion(2)
	for i := 0; i < 20; i++ {
		bias := e.SampleTNewBias(r)
		if want := cold.SampleTNewBias(cr); bias != want {
			t.Fatalf("draw %d: bias %v after a completion, %v without", i, bias, want)
		}
		a, b := e.NormalizedMedian()*1*bias, e.NormalizedMedian()*10*bias
		if math.Abs(b-10*a) > 1e-9 {
			t.Fatalf("t_new not linear in scale: %v vs %v", a, b)
		}
	}
}

// TestDeterminism: a bias is a pure function of the stream it is drawn
// from — the same keyed stream gives the same bias, whichever estimator
// draws it and whatever it drew before.
func TestDeterminism(t *testing.T) {
	mk := func() []float64 {
		e := newTest(t, Config{TRemNoise: 0.3, TNewNoise: 0.15})
		out := make([]float64, 50)
		for i := range out {
			r := dist.Keyed(42, uint64(i))
			if i%3 == 0 {
				out[i] = e.SampleTNewBias(&r)
			} else {
				out[i] = e.SampleTRemBias(&r)
			}
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("estimator nondeterministic at %d", i)
		}
	}
}
