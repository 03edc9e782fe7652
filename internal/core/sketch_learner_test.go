package core

import (
	"math"
	"reflect"
	"testing"

	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

func TestParseLearnerKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want LearnerKind
	}{{"", LearnerRing}, {"ring", LearnerRing}, {"sketch", LearnerSketch}} {
		got, err := ParseLearnerKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseLearnerKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() == "" {
			t.Errorf("LearnerKind(%v).String() empty", got)
		}
	}
	if _, err := ParseLearnerKind("bogus"); err == nil {
		t.Error("ParseLearnerKind must reject unknown names")
	}
}

func TestSketchLearnerRecordAndAggregate(t *testing.T) {
	l := NewSketchLearner(AllFactors())
	if _, ok := l.Aggregate(sampleGS, task.Small, 2, 0.7); ok {
		t.Fatal("empty learner aggregated")
	}
	l.Record(sampleGS, task.Small, 2, 0.7, mkCurve(10, 1))
	if l.Samples(task.Small, sampleGS) != 1 {
		t.Fatal("sample not counted")
	}
	c, ok := l.Aggregate(sampleGS, task.Small, 2, 0.7)
	if !ok {
		t.Fatal("aggregate failed")
	}
	// A linear curve reaching 1.0 at t=10: the aggregate's time to the
	// half fraction must be ~5 within the histogram's relative error
	// (FracAt is too step-coarse to pin here — the 10-point source curve
	// dominates the quantization).
	if got := c.TimeToFrac(0.5); math.Abs(got-5) > 0.1 {
		t.Fatalf("aggregate TimeToFrac(0.5) = %v, want ~5", got)
	}
	// Cached pointer until the next Record, invalidated after.
	c2, _ := l.Aggregate(sampleGS, task.Small, 2, 0.7)
	if c2 != c {
		t.Fatal("aggregate not cached")
	}
	l.Record(sampleGS, task.Small, 2, 0.7, mkCurve(20, 1))
	c3, _ := l.Aggregate(sampleGS, task.Small, 2, 0.7)
	if c3 == c {
		t.Fatal("cache not invalidated by Record")
	}
}

func TestSketchLearnerIgnoresEmptyAndDeadCurves(t *testing.T) {
	l := NewSketchLearner(AllFactors())
	l.Record(sampleGS, task.Small, 2, 0.7, &Curve{})
	l.Record(sampleGS, task.Small, 2, 0.7, nil)
	if l.Samples(task.Small, sampleGS) != 0 {
		t.Fatal("empty curve counted")
	}
	// A curve that completed nothing contributes to no grid level: it
	// counts as a sample but cannot produce an aggregate on its own.
	var dead Curve
	dead.Add(5, 0)
	l.Record(sampleGS, task.Small, 2, 0.7, &dead)
	if l.Samples(task.Small, sampleGS) != 1 {
		t.Fatal("dead curve should still count as a sample")
	}
	if _, ok := l.Aggregate(sampleGS, task.Small, 2, 0.7); ok {
		t.Fatal("aggregate from an all-infinite sample should fail")
	}
}

func TestSketchLearnerFallbackStages(t *testing.T) {
	l := NewSketchLearner(AllFactors())
	// Three fast samples at (waves bucket 1, acc bucket 2) and FIVE slow
	// at (waves bucket 3, acc bucket 0): with 8 samples in the all stage
	// the per-level median (rank ⌈0.5·8⌉ = 4) lands on a slow
	// observation, so the mixed aggregate is visibly distinct from the
	// pure-fast one.
	for i := 0; i < 5; i++ {
		if i < 3 {
			l.Record(sampleGS, task.Medium, 2, 0.9, mkCurve(10, 1))
		}
		l.Record(sampleGS, task.Medium, 10, 0.5, mkCurve(100, 1))
	}
	// timeAtHalf reads the aggregate's time to fraction 0.5 — enough to
	// tell a ~10s curve (→ ~5) from a ~100s curve (→ ~50) or a mix.
	timeAtHalf := func(waves, acc float64) float64 {
		c, ok := l.Aggregate(sampleGS, task.Medium, waves, acc)
		if !ok {
			t.Fatalf("aggregate failed for waves=%v acc=%v", waves, acc)
		}
		return c.TimeToFrac(0.5)
	}
	if got := timeAtHalf(2, 0.9); math.Abs(got-5) > 1 {
		t.Errorf("exact stage: time-to-half %v, want ~5", got)
	}
	if got := timeAtHalf(2, 0.5); math.Abs(got-5) > 1 {
		t.Errorf("relax-acc stage: time-to-half %v, want ~5", got)
	}
	if got := timeAtHalf(3, 0.9); math.Abs(got-5) > 1 {
		t.Errorf("relax-waves stage: time-to-half %v, want ~5", got)
	}
	// The all stage mixes both sample sets; the per-level median rank
	// falls on a slow observation, far from the pure-fast ~5.
	if got := timeAtHalf(3, 0.7); math.Abs(got-50) > 5 {
		t.Errorf("all stage: time-to-half %v, want ~50 (slow median)", got)
	}
}

func TestSketchLearnerEmptyFactorSetMatchesAll(t *testing.T) {
	l := NewSketchLearner(FactorSet{})
	l.Record(sampleRAS, task.Small, 10, 0.9, mkCurve(42, 1))
	c, ok := l.Aggregate(sampleRAS, task.Small, 1, 0.5)
	if !ok {
		t.Fatal("empty factor set must match the single sample")
	}
	if got := c.TimeToFrac(0.5); math.Abs(got-21) > 2 {
		t.Fatalf("time-to-half %v, want ~21", got)
	}
}

func TestSketchLearnerCloneIndependent(t *testing.T) {
	l := NewSketchLearner(AllFactors())
	l.Record(sampleGS, task.Small, 2, 0.7, mkCurve(10, 1))
	l.Aggregate(sampleGS, task.Small, 2, 0.7) // populate cache + scratch
	c := l.Clone()
	c.Record(sampleGS, task.Small, 2, 0.7, mkCurve(20, 1))
	if l.Samples(task.Small, sampleGS) != 1 || c.Samples(task.Small, sampleGS) != 2 {
		t.Fatalf("clone not independent: %d / %d", l.Samples(task.Small, sampleGS), c.Samples(task.Small, sampleGS))
	}
	// Clones of identically-fed learners are deeply equal no matter what
	// was queried in between — caches and scratch are stripped.
	a, b := NewSketchLearner(AllFactors()), NewSketchLearner(AllFactors())
	a.Record(sampleGS, task.Small, 2, 0.7, mkCurve(10, 1))
	b.Record(sampleGS, task.Small, 2, 0.7, mkCurve(10, 1))
	a.Aggregate(sampleGS, task.Small, 2, 0.7)
	a.Aggregate(sampleGS, task.Small, 99, 0.1)
	if !reflect.DeepEqual(a.Clone(), b.Clone()) {
		t.Fatal("queries leaked into cloned state")
	}
}

func TestSketchLearnerBaseLayer(t *testing.T) {
	seed := NewSketchLearner(AllFactors())
	for i := 0; i < 3; i++ {
		seed.Record(sampleGS, task.Small, 2, 0.9, mkCurve(10, 1))
	}
	l := NewSketchLearner(AllFactors())
	l.SetBase(seed.Clone())
	// Queries and the sample gate see the seeded history immediately.
	if got := l.Samples(task.Small, sampleGS); got != 3 {
		t.Fatalf("samples with base = %d, want 3", got)
	}
	c, ok := l.Aggregate(sampleGS, task.Small, 2, 0.9)
	if !ok || math.Abs(c.TimeToFrac(0.5)-5) > 1 {
		t.Fatalf("base-only aggregate: ok=%v time-to-half %v, want ~5", ok, c.TimeToFrac(0.5))
	}
	// Own records combine with the base: 3 fast seeded + 5 slow own puts
	// the per-level median (rank 4 of 8) on a slow observation.
	for i := 0; i < 5; i++ {
		l.Record(sampleGS, task.Small, 2, 0.9, mkCurve(100, 1))
	}
	if got := l.Samples(task.Small, sampleGS); got != 8 {
		t.Fatalf("samples with base+own = %d, want 8", got)
	}
	c, ok = l.Aggregate(sampleGS, task.Small, 2, 0.9)
	if !ok || math.Abs(c.TimeToFrac(0.5)-50) > 5 {
		t.Fatalf("combined aggregate: ok=%v time-to-half %v, want ~50", ok, c.TimeToFrac(0.5))
	}
	// The export is the delta: deeply equal to a learner that recorded
	// only the 5 own samples, the base stripped entirely.
	own := NewSketchLearner(AllFactors())
	for i := 0; i < 5; i++ {
		own.Record(sampleGS, task.Small, 2, 0.9, mkCurve(100, 1))
	}
	if !reflect.DeepEqual(l.Clone(), own.Clone()) {
		t.Fatal("export leaked the seeded base")
	}
}

func TestSketchLearnerMergePanics(t *testing.T) {
	l := NewSketchLearner(AllFactors())
	l.Merge(nil) // no-op
	func() {
		defer func() {
			if recover() == nil {
				t.Error("merging learners with different factor sets must panic")
			}
		}()
		l.Merge(NewSketchLearner(FactorSet{}))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("merging incompatible learned state must panic")
			}
		}()
		l.MergeLearned(fakeLearnedState{})
	}()
}

type fakeLearnedState struct{}

func (fakeLearnedState) MergeLearned(spec.LearnedState) {}

// differentialSamples builds a fixed, varied sample multiset spanning
// both policies, all size bins, every factor bucket, and curves of
// different durations and final fractions — the workload for the
// partition-invariance tests.
type diffSample struct {
	p     samplePolicy
	bin   task.SizeBin
	waves float64
	acc   float64
	curve *Curve
}

func differentialSamples() []diffSample {
	policies := []samplePolicy{sampleGS, sampleRAS}
	bins := []task.SizeBin{task.Small, task.Medium, task.Large}
	waves := []float64{0.5, 1.5, 3, 10, math.NaN()}
	accs := []float64{0.5, 0.7, 0.9, math.NaN()}
	var out []diffSample
	i := 0
	for _, p := range policies {
		for _, b := range bins {
			for _, w := range waves {
				for _, a := range accs {
					dur := float64(5 + i%37)
					final := 0.4 + 0.2*float64(i%4)
					out = append(out, diffSample{p: p, bin: b, waves: w, acc: a, curve: mkCurve(dur, final)})
					i++
				}
			}
		}
	}
	return out
}

// TestSketchLearnerPartitionInvariant is the acceptance criterion of the
// P>1 learning fix: distribute one sample multiset round-robin across P
// learners (the sharded runner's jobID-mod-P shape), fold them at the
// canonical merge step, and the merged state is DEEPLY EQUAL to a single
// learner fed every sample — so at P∈{2,4} every partition's next epoch
// queries exactly the combined cluster history, not a partition-scoped
// slice.
func TestSketchLearnerPartitionInvariant(t *testing.T) {
	samples := differentialSamples()
	single := NewSketchLearner(AllFactors())
	for _, s := range samples {
		single.Record(s.p, s.bin, s.waves, s.acc, s.curve)
	}
	for _, parts := range []int{2, 4} {
		learners := make([]*SketchLearner, parts)
		for p := range learners {
			learners[p] = NewSketchLearner(AllFactors())
		}
		for i, s := range samples {
			learners[i%parts].Record(s.p, s.bin, s.waves, s.acc, s.curve)
		}
		// Fold exported clones in canonical ascending-partition order,
		// exactly as sched.MergeLearnedStates does.
		states := make([]spec.LearnedState, parts)
		for p := range learners {
			learners[p].Aggregate(sampleGS, task.Small, 2, 0.7) // queries must not leak
			states[p] = learners[p].Clone()
		}
		var acc spec.LearnedState = states[0]
		for _, s := range states[1:] {
			acc.MergeLearned(s)
		}
		merged := acc.(*SketchLearner)
		if !reflect.DeepEqual(merged.Clone(), single.Clone()) {
			t.Errorf("P=%d: merged learner state diverges from single-learner state", parts)
		}
		// Behavioral check on top of the structural one: identical
		// aggregate curves for a spread of queries.
		for _, q := range []struct {
			p          samplePolicy
			bin        task.SizeBin
			waves, acc float64
		}{
			{sampleGS, task.Small, 2, 0.9},
			{sampleRAS, task.Medium, 10, 0.5},
			{sampleGS, task.Large, 1, 0.7},
		} {
			mc, mok := merged.Aggregate(q.p, q.bin, q.waves, q.acc)
			sc, sok := single.Aggregate(q.p, q.bin, q.waves, q.acc)
			if mok != sok || !reflect.DeepEqual(mc, sc) {
				t.Errorf("P=%d: aggregate diverges for %+v", parts, q)
			}
		}
	}
}

// TestSketchLearnerMergeOrderInvariant: the canonical ascending order at
// the sharded merge step is a convention, not a correctness requirement —
// any merge order of the same partition states lands on equal state.
func TestSketchLearnerMergeOrderInvariant(t *testing.T) {
	samples := differentialSamples()
	mk := func(order []int) *SketchLearner {
		parts := make([]*SketchLearner, 3)
		for p := range parts {
			parts[p] = NewSketchLearner(AllFactors())
		}
		for i, s := range samples {
			parts[i%3].Record(s.p, s.bin, s.waves, s.acc, s.curve)
		}
		acc := parts[order[0]].Clone()
		acc.Merge(parts[order[1]].Clone())
		acc.Merge(parts[order[2]].Clone())
		return acc
	}
	fwd, rev := mk([]int{0, 1, 2}), mk([]int{2, 1, 0})
	if !reflect.DeepEqual(fwd.Clone(), rev.Clone()) {
		t.Fatal("merge order changed sketch learner state")
	}
}

// TestSketchLearnerCachePerPair holds Aggregate's cache to its version, the
// sample count under the query's (size bin, policy): a sample recorded or
// merged under another bin or policy keeps the cached curve, one under the
// same pair refreshes it, and every answer equals a freshly built
// learner's fed the same samples.
func TestSketchLearnerCachePerPair(t *testing.T) {
	l := NewSketchLearner(AllFactors())
	var fed []*SketchLearner // each sample batch, as a learner to merge
	add := func(p samplePolicy, bin task.SizeBin, dur float64, merge bool) {
		o := NewSketchLearner(AllFactors())
		o.Record(p, bin, 2, 0.7, mkCurve(dur, 1))
		fed = append(fed, o)
		if merge {
			l.Merge(o)
		} else {
			l.Record(p, bin, 2, 0.7, mkCurve(dur, 1))
		}
	}
	aggregate := func(name string) *Curve {
		t.Helper()
		fresh := NewSketchLearner(AllFactors())
		for _, o := range fed {
			fresh.Merge(o)
		}
		got, ok := l.Aggregate(sampleGS, task.Small, 2, 0.7)
		want, wantOK := fresh.Aggregate(sampleGS, task.Small, 2, 0.7)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Aggregate (%v, %v), a fresh learner's (%v, %v)", name, got, ok, want, wantOK)
		}
		return got
	}
	for i := 0; i < 3; i++ {
		add(sampleGS, task.Small, 10, false)
	}
	cached := aggregate("three samples")
	for _, merge := range []bool{false, true} {
		add(sampleGS, task.Medium, 50, merge)
		add(sampleRAS, task.Small, 50, merge)
		if c := aggregate("another bin and policy"); c != cached {
			t.Fatalf("merge %v: a sample under another bin or policy refreshed the cached curve", merge)
		}
		add(sampleGS, task.Small, 100, merge)
		if c := aggregate("the same bin and policy"); c == cached {
			t.Fatalf("merge %v: a sample under the same bin and policy kept the cached curve", merge)
		} else {
			cached = c
		}
	}
}
