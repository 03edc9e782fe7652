package sched

import (
	"testing"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/estimate"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// TestEstimatorBumpDirtiesExactly pins what an estimator update costs the
// views: it re-derives no task record. An unchanged normalized median (an
// observation of the median itself) rechecks nothing, though every refresh
// hands the median to the set; a moved median leaves every record alone,
// every incomplete task's TNew reads median × work × bias at the new
// median bit for bit, and the (TNew, index) order holds. In both cases the
// refresh touches nothing.
func TestEstimatorBumpDirtiesExactly(t *testing.T) {
	s, err := New(smallConfig(5), spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	s.admit(uniformJob(0, 60, task.Exact(), 0))
	js := s.active[0]
	// Run until a few tasks completed, so "every incomplete task" is a
	// strict subset of the phase and the exclusion of completed tasks is
	// observable.
	for js.phase.completed < 5 {
		if !s.eng.Step() {
			t.Fatal("drained before 5 completions")
		}
	}
	if js.done || js.phase == nil {
		t.Fatal("job finished prematurely")
	}
	// Bring the records current, then measure what each controlled bump
	// makes the next refresh do.
	s.refreshViews(js)
	vs := &js.jv.vs
	refresh := func() (touches, rechecks uint64) {
		t.Helper()
		if len(js.jv.dirty) != 0 {
			t.Fatalf("%d tasks dirty before the refresh", len(js.jv.dirty))
		}
		to, re, _ := s.TouchStats()
		s.refreshViews(js)
		to2, re2, _ := s.TouchStats()
		if to2 != to {
			t.Fatalf("refresh with nothing dirty touched %d records, want 0", to2-to)
		}
		return to2 - to, re2 - re
	}
	tnewBefore := map[int]float64{}
	for i := 0; i < js.phase.n; i++ {
		if !js.tasks.completed[i] {
			tnewBefore[i] = vs.TNew(i)
		}
	}

	// Case 1: insert the current median back into the estimator window.
	// The median is provably unchanged, so no estimate moved: the refresh
	// rechecks nothing.
	medBefore := s.est.NormalizedMedian()
	s.est.ObserveCompletion(medBefore)
	if s.est.NormalizedMedian() != medBefore {
		t.Fatal("precondition failed: inserting the median moved the median")
	}
	if _, re := refresh(); re != 0 {
		t.Fatalf("unchanged median rechecked %d pairs, want 0", re)
	}
	for i, want := range tnewBefore {
		if got := vs.TNew(i); got != want {
			t.Fatalf("task %d TNew moved on a no-op bump: %v -> %v", i, want, got)
		}
	}

	// Case 2: insert far-tail values until the median moves (the
	// duplicated middle from case 1 can absorb one insertion). Every
	// incomplete task's estimate changes, and none is re-derived.
	for i := 0; i < 8 && s.est.NormalizedMedian() == medBefore; i++ {
		s.est.ObserveCompletion(100 * medBefore)
	}
	med := s.est.NormalizedMedian()
	if med == medBefore {
		t.Fatal("precondition failed: tail observations did not move the median")
	}
	refresh()
	for i, before := range tnewBefore {
		got := vs.TNew(i)
		bias := s.est.SampleTNewBias(s.keyed(keyTNew, js, i, 0))
		if want := med * js.tasks.work[i] * bias; got != want {
			t.Fatalf("task %d TNew %v after the move, want %v", i, got, want)
		}
		if got == before {
			t.Fatalf("task %d TNew unchanged by the median move", i)
		}
	}
	if err := vs.CheckOrder(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyTNewRescaleIsInexact pins why the ViewSet evaluates TNew as the
// left-to-right product median × work × factor on every read, and why a
// median move still rechecks near-tied neighbours. Neither cheaper scheme
// reproduces that product bit for bit, so neither can be hash-identical:
// a lazy epoch multiplier on stored keys (stored × med₂/med₁) and an
// immutable per-task base with the median applied on read
// (med × fl(work × factor)) both miss it in the last ulp. And rounding
// flips the order of near-tied keys under a median move, so the order
// cannot go unchecked. The test hunts a deterministic sample space for
// witnesses of all three and requires each to appear — if float semantics
// somehow made these schemes exact, this test failing would be the signal
// to revisit spec.ViewSet.
func TestLazyTNewRescaleIsInexact(t *testing.T) {
	rng := dist.NewRNG(99)
	epochMiss, reassocMiss, orderFlips := 0, 0, 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		m1 := 0.5 + rng.Float64()*2          // median before the move
		m2 := m1 * (0.9 + rng.Float64()*0.2) // median after
		w := 0.1 + rng.Float64()*10          // task work (immutable)
		b := 0.5 + rng.Float64()             // tnew bias (immutable)
		patched := m2 * w * b                // the on-read left-to-right product
		if (m1*w*b)*(m2/m1) != patched {
			epochMiss++ // lazy epoch multiplier on a stored key
		}
		if m2*(w*b) != patched {
			reassocMiss++ // immutable per-task base, median applied on read
		}
		// Near-tied neighbor keys: a median move is monotone per key but
		// rounding can flip the ORDER of two keys, which is why
		// ViewSet.SetMedian rechecks near-tied neighbours.
		w2 := w * (1 + (rng.Float64()-0.5)*1e-15)
		b2 := b * (1 + (rng.Float64()-0.5)*1e-15)
		a1, c1 := m1*w*b, m1*w2*b2
		a2, c2 := m2*w*b, m2*w2*b2
		if a1 != c1 && a2 != c2 && (a1 < c1) != (a2 < c2) {
			orderFlips++
		}
	}
	if epochMiss == 0 {
		t.Error("epoch-multiplied keys matched the on-read product everywhere — lazy epoch may be exact after all; revisit spec.ViewSet")
	}
	if reassocMiss == 0 {
		t.Error("re-associated keys matched the on-read product everywhere — factored base may be exact after all; revisit spec.ViewSet")
	}
	if orderFlips == 0 {
		t.Error("no order flips among near-tied keys — the near-tie recheck rationale may be stale")
	}
	t.Logf("witnesses in %d trials: epoch %d, reassociation %d, order flips %d",
		trials, epochMiss, reassocMiss, orderFlips)
}

// TestStragglersPairedAcrossPolicies: a copy's duration factor is keyed by
// (job, phase, task, copy ordinal), not drawn in launch order, so every
// policy draws the same straggler for the same copy. On a homogeneous
// cluster every machine's slowdown is exactly 1, so a task's first copy
// lasts work × factor under every policy. The hook records that duration
// for each task seen running with its first copy as its only launch, and
// every task seen under two policies must have bit-identical durations.
func TestStragglersPairedAcrossPolicies(t *testing.T) {
	type taskKey struct{ job, phase, task int }
	seen := make([]map[taskKey]float64, len(diffPolicies))
	for p, pol := range diffPolicies {
		cfg := smallConfig(7)
		cfg.Cluster.HeterogeneitySigma = 0
		s, err := New(cfg, pol.factory(t))
		if err != nil {
			t.Fatal(err)
		}
		first := map[taskKey]float64{}
		s.checkViews = func(js *jobState, _ spec.Ctx, _ *spec.ViewSet, _ spec.Decision, _ bool) {
			tb := &js.tasks
			for i := 0; i < js.phase.n; i++ {
				if tb.launched[i] == 1 && len(tb.copies[i]) == 1 {
					first[taskKey{js.job.ID, js.phaseIdx, i}] = tb.copies[i][0].duration
				}
			}
		}
		if _, err := s.Run(diffWorkload()); err != nil {
			t.Fatal(err)
		}
		seen[p] = first
	}
	fewest := -1
	for a := range diffPolicies {
		for b := a + 1; b < len(diffPolicies); b++ {
			both := 0
			for k, da := range seen[a] {
				db, ok := seen[b][k]
				if !ok {
					continue
				}
				both++
				if da != db {
					t.Fatalf("%s vs %s: job %d phase %d task %d's first copy lasts %v vs %v",
						diffPolicies[a].name, diffPolicies[b].name, k.job, k.phase, k.task, da, db)
				}
			}
			if both < 500 {
				t.Fatalf("%s vs %s: only %d tasks seen under both policies", diffPolicies[a].name, diffPolicies[b].name, both)
			}
			if fewest < 0 || both < fewest {
				fewest = both
			}
		}
	}
	t.Logf("every policy pair shares at least %d first copies", fewest)
}

// TestTRemScoredAtProgressReports: a copy scores the t_rem estimate of
// each of its first four progress reports from spec.MinSpecProgress on
// that it lived to send, in closed form at its end: at report p the true
// remaining time is rem = duration × (1 − p) and the estimate is
// spec.TRemEstimate(rem, bias, p). A reference estimator fed exactly those
// scores must agree with the simulator's to the bit.
func TestTRemScoredAtProgressReports(t *testing.T) {
	cfg := smallConfig(3)
	c := &copyRun{start: 2, duration: 8, tremBias: 1.6}
	reports := []float64{0.15, 0.20, 0.25, 0.30}
	for _, tc := range []struct {
		name   string
		lived  float64 // fraction of its duration the copy ran
		scored int
	}{
		{"killed before the first report", 0.149, 0},
		{"killed after two reports", 0.22, 2},
		{"completed", 1, 4},
	} {
		s, err := New(cfg, spec.Stateless(spec.GS{}))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := estimate.New(cfg.Estimator)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range reports[:tc.scored] {
			rem := c.duration * (1 - p)
			ref.RecordTRem(spec.TRemEstimate(rem, c.tremBias, p), rem)
		}
		s.scoreTRem(c, c.start+tc.lived*c.duration)
		if got, want := s.est.TRemAccuracy(), ref.TRemAccuracy(); got != want {
			t.Errorf("%s: t_rem accuracy %v, want %v from %d scores", tc.name, got, want, tc.scored)
		}
	}

	// A completed copy is scored through endCopy: a one-task job's only
	// copy leaves four t_rem scores.
	s, err := New(cfg, spec.Stateless(spec.NoSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	s.admit(uniformJob(0, 1, task.Exact(), 0))
	only := *s.active[0].tasks.copies[0][0]
	for s.eng.Step() {
	}
	ref, err := estimate.New(cfg.Estimator)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range reports {
		rem := only.duration * (1 - p)
		ref.RecordTRem(spec.TRemEstimate(rem, only.tremBias, p), rem)
	}
	if got, want := s.est.TRemAccuracy(), ref.TRemAccuracy(); got != want {
		t.Fatalf("completed copy: t_rem accuracy %v, want %v from four scores", got, want)
	}
}
