package spec

import (
	"testing"
	"testing/quick"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/task"
)

func deadlineCtx(remaining float64, total int) Ctx {
	return Ctx{
		Kind:          task.DeadlineBound,
		RemainingTime: remaining,
		TargetTasks:   total,
		TotalTasks:    total,
		WaveWidth:     10,
	}
}

func errorCtx(target, completed, total int) Ctx {
	return Ctx{
		Kind:           task.ErrorBound,
		TargetTasks:    target,
		CompletedTasks: completed,
		TotalTasks:     total,
		WaveWidth:      10,
	}
}

func TestSaving(t *testing.T) {
	v := TaskView{Copies: 1, TRem: 5, TNew: 2}
	if got := v.Saving(); got != 1 { // 1×5 − 2×2, the Figure 1 example
		t.Fatalf("saving = %v, want 1", got)
	}
	v2 := TaskView{Copies: 2, TRem: 5, TNew: 2}
	if got := v2.Saving(); got != 4 { // 2×5 − 3×2
		t.Fatalf("saving = %v, want 4", got)
	}
}

func TestCtxRemaining(t *testing.T) {
	c := errorCtx(8, 3, 10)
	if c.Remaining() != 5 {
		t.Fatalf("remaining = %d", c.Remaining())
	}
	c.CompletedTasks = 9
	if c.Remaining() != 0 {
		t.Fatal("remaining should clamp at 0")
	}
}

// --- GS deadline ---

func TestGSDeadlineSJF(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, TNew: 5},
		{Index: 1, TNew: 2},
		{Index: 2, TNew: 3},
	}
	d, ok := GS{}.Pick(deadlineCtx(10, 3), tasks)
	if !ok || d.TaskIndex != 1 || d.Speculative {
		t.Fatalf("got %+v ok=%v, want fresh task 1", d, ok)
	}
}

func TestGSDeadlinePrunesBeyondDeadline(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, TNew: 50},
		{Index: 1, TNew: 20},
	}
	if _, ok := (GS{}).Pick(deadlineCtx(10, 2), tasks); ok {
		t.Fatal("GS scheduled a task that cannot make the deadline")
	}
}

func TestGSDeadlineSpeculatesStraggler(t *testing.T) {
	// The running straggler's fresh copy (2) is quicker than every
	// unscheduled task (3): greedy picks the speculative copy.
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 9, TNew: 2},
		{Index: 1, TNew: 3},
	}
	d, ok := GS{}.Pick(deadlineCtx(10, 2), tasks)
	if !ok || d.TaskIndex != 0 || !d.Speculative {
		t.Fatalf("got %+v, want speculative copy of task 0", d)
	}
}

func TestGSDeadlineSkipsUselessSpeculation(t *testing.T) {
	// tnew >= trem: a copy cannot beat the original.
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 2, TNew: 2},
		{Index: 1, TNew: 3},
	}
	d, ok := GS{}.Pick(deadlineCtx(10, 2), tasks)
	if !ok || d.TaskIndex != 1 || d.Speculative {
		t.Fatalf("got %+v, want fresh task 1", d)
	}
}

func TestGSDeadlineCopyCap(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: MaxCopies, TRem: 100, TNew: 1},
	}
	if _, ok := (GS{}).Pick(deadlineCtx(10, 1), tasks); ok {
		t.Fatal("GS exceeded copy cap")
	}
}

// --- RAS deadline ---

func TestRASDeadlinePrefersSaving(t *testing.T) {
	// Figure 1 (right): speculating T1 (trem 5, tnew 2) saves one resource
	// unit, so RAS prefers it over launching T3.
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 5, TNew: 2},
		{Index: 1, TNew: 2},
	}
	d, ok := RAS{}.Pick(deadlineCtx(6, 2), tasks)
	if !ok || d.TaskIndex != 0 || !d.Speculative {
		t.Fatalf("got %+v, want speculative copy of task 0", d)
	}
}

func TestRASDeadlineFallsBackToSJF(t *testing.T) {
	// No positive saving: 1×4 − 2×2 = 0 is not > 0.
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 4, TNew: 2},
		{Index: 1, TNew: 7},
		{Index: 2, TNew: 3},
	}
	d, ok := RAS{}.Pick(deadlineCtx(10, 3), tasks)
	if !ok || d.TaskIndex != 2 || d.Speculative {
		t.Fatalf("got %+v, want fresh task 2 (SJF)", d)
	}
}

func TestRASDeadlinePicksMaxSaving(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 5, TNew: 2},  // saving 1
		{Index: 1, Running: true, Speculable: true, Copies: 1, TRem: 10, TNew: 2}, // saving 6
	}
	d, ok := RAS{}.Pick(deadlineCtx(20, 2), tasks)
	if !ok || d.TaskIndex != 1 {
		t.Fatalf("got %+v, want task 1 (max saving)", d)
	}
}

func TestRASDeadlinePrunesBeyondDeadline(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 50, TNew: 20}, // saving 10 but > δ'
		{Index: 1, TNew: 30},
	}
	if _, ok := (RAS{}).Pick(deadlineCtx(10, 2), tasks); ok {
		t.Fatal("RAS scheduled past the deadline")
	}
}

// --- GS / RAS error-bound ---

func TestGSErrorLJF(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, TNew: 2},
		{Index: 1, TNew: 8},
		{Index: 2, TNew: 5},
	}
	d, ok := GS{}.Pick(errorCtx(3, 0, 3), tasks)
	if !ok || d.TaskIndex != 1 || d.Speculative {
		t.Fatalf("got %+v, want fresh task 1 (LJF)", d)
	}
}

func TestGSErrorPruningExcludesSlowest(t *testing.T) {
	// Only 2 of 3 tasks are needed; the slowest (index 1, eff 8) is pruned,
	// so LJF picks index 2 (eff 5).
	tasks := []TaskView{
		{Index: 0, TNew: 2},
		{Index: 1, TNew: 8},
		{Index: 2, TNew: 5},
	}
	d, ok := GS{}.Pick(errorCtx(2, 0, 3), tasks)
	if !ok || d.TaskIndex != 2 {
		t.Fatalf("got %+v, want task 2", d)
	}
}

func TestGSErrorSpeculatesHighestTRem(t *testing.T) {
	// Figure 2: GS launches a copy of the task with the highest t_rem.
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 4, TNew: 2},
		{Index: 1, Running: true, Speculable: true, Copies: 1, TRem: 9, TNew: 2},
		{Index: 2, Running: true, Speculable: true, Copies: 1, TRem: 6, TNew: 2},
	}
	d, ok := GS{}.Pick(errorCtx(3, 0, 3), tasks)
	if !ok || d.TaskIndex != 1 || !d.Speculative {
		t.Fatalf("got %+v, want speculative copy of task 1", d)
	}
}

func TestRASErrorConservative(t *testing.T) {
	// Figure 2: RAS avoids the copy GS launches because it saves no
	// resources (1×4 − 2×2 = 0).
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 4, TNew: 2},
		{Index: 1, TNew: 3},
	}
	d, ok := RAS{}.Pick(errorCtx(2, 0, 2), tasks)
	if !ok || d.TaskIndex != 1 || d.Speculative {
		t.Fatalf("got %+v, want fresh task 1", d)
	}
}

func TestRASErrorSpeculatesOnSaving(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 10, TNew: 2},
		{Index: 1, TNew: 3},
	}
	d, ok := RAS{}.Pick(errorCtx(2, 0, 2), tasks)
	if !ok || d.TaskIndex != 0 || !d.Speculative {
		t.Fatalf("got %+v, want speculative copy of task 0", d)
	}
}

func TestErrorBoundNeedZero(t *testing.T) {
	tasks := []TaskView{{Index: 0, TNew: 1}}
	if _, ok := (GS{}).Pick(errorCtx(5, 5, 10), tasks); ok {
		t.Fatal("GS scheduled with bound already met")
	}
	if _, ok := (RAS{}).Pick(errorCtx(5, 5, 10), tasks); ok {
		t.Fatal("RAS scheduled with bound already met")
	}
}

// --- Baselines ---

func TestNoSpecFIFO(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 100, TNew: 1},
		{Index: 1, TNew: 50},
		{Index: 2, TNew: 1},
	}
	d, ok := NoSpec{}.Pick(deadlineCtx(10, 3), tasks)
	if !ok || d.TaskIndex != 1 || d.Speculative {
		t.Fatalf("got %+v, want fresh task 1 (FIFO)", d)
	}
	// Only running tasks left: idle.
	if _, ok := (NoSpec{}).Pick(deadlineCtx(10, 1), tasks[:1]); ok {
		t.Fatal("NoSpec speculated")
	}
}

func TestLATENewTasksFirst(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 100, TNew: 1, Elapsed: 10, Progress: 0.01},
		{Index: 1, TNew: 50},
	}
	d, ok := NewLATE().Pick(deadlineCtx(1000, 2), tasks)
	if !ok || d.TaskIndex != 1 || d.Speculative {
		t.Fatalf("got %+v, want fresh task 1", d)
	}
}

func TestLATESpeculatesSlowest(t *testing.T) {
	// All scheduled; task 0 progresses at rate 0.005/unit, task 1 at 0.09 —
	// only task 0 is below the 25th percentile; it also has the longest
	// time left.
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 100, TNew: 10, Elapsed: 10, Progress: 0.05},
		{Index: 1, Running: true, Speculable: true, Copies: 1, TRem: 5, TNew: 10, Elapsed: 10, Progress: 0.9},
		{Index: 2, Running: true, Speculable: true, Copies: 1, TRem: 6, TNew: 10, Elapsed: 10, Progress: 0.8},
		{Index: 3, Running: true, Speculable: true, Copies: 1, TRem: 7, TNew: 10, Elapsed: 10, Progress: 0.85},
	}
	d, ok := NewLATE().Pick(deadlineCtx(1000, 4), tasks)
	if !ok || d.TaskIndex != 0 || !d.Speculative {
		t.Fatalf("got %+v ok=%v, want speculative copy of task 0", d, ok)
	}
}

// TestLATETiedRatesNoSpeculation pins the percentile-boundary fix: when a
// wave launches together and every running task reports the same progress
// rate, the threshold equals that rate and *no* task is below it — nothing
// is a straggler. The old `rate > thr → skip` test classified every
// candidate as slow and speculated a healthy task.
func TestLATETiedRatesNoSpeculation(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 10, TNew: 10, Elapsed: 10, Progress: 0.5},
		{Index: 1, Running: true, Speculable: true, Copies: 1, TRem: 10, TNew: 10, Elapsed: 10, Progress: 0.5},
		{Index: 2, Running: true, Speculable: true, Copies: 1, TRem: 10, TNew: 10, Elapsed: 10, Progress: 0.5},
	}
	if d, ok := NewLATE().Pick(deadlineCtx(1000, 3), tasks); ok {
		t.Fatalf("LATE speculated %+v among identically progressing tasks", d)
	}
}

// TestLATESingleCandidateNotSlow: a lone running task cannot be below the
// percentile of its own rate; LATE must leave the slot idle rather than
// speculate a task with no evidence it is slow (the old boundary test
// speculated it).
func TestLATESingleCandidateNotSlow(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 50, TNew: 10, Elapsed: 10, Progress: 0.2},
	}
	if d, ok := NewLATE().Pick(deadlineCtx(1000, 1), tasks); ok {
		t.Fatalf("LATE speculated %+v with a single candidate", d)
	}
}

// TestLATEStalledTaskOutranksStraggler pins the stalled-task sentinel: a
// task with zero progress rate has unbounded time-to-end and must win the
// longest-approximate-time-to-end selection over any moving straggler. The
// old `t_new × 100` sentinel lost when a mover's (1 − progress)/rate
// exceeded it.
func TestLATEStalledTaskOutranksStraggler(t *testing.T) {
	tasks := []TaskView{
		// Stalled: no progress after 100 units; old sentinel = 5 × 100 = 500.
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 1000, TNew: 5, Elapsed: 100, Progress: 0},
		// Moving straggler: rate 0.001, time-to-end (1−0.2)/0.001 = 800 > 500.
		{Index: 1, Running: true, Speculable: true, Copies: 1, TRem: 800, TNew: 5, Elapsed: 200, Progress: 0.2},
		// Healthy tasks lifting the interpolated threshold above both, so the
		// stalled task and the mover are each classified slow.
		{Index: 2, Running: true, Speculable: true, Copies: 1, TRem: 1, TNew: 5, Elapsed: 1, Progress: 0.9},
		{Index: 3, Running: true, Speculable: true, Copies: 1, TRem: 1, TNew: 5, Elapsed: 1, Progress: 0.92},
		{Index: 4, Running: true, Speculable: true, Copies: 1, TRem: 1, TNew: 5, Elapsed: 1, Progress: 0.94},
		{Index: 5, Running: true, Speculable: true, Copies: 1, TRem: 1, TNew: 5, Elapsed: 1, Progress: 0.96},
	}
	d, ok := NewLATE().Pick(deadlineCtx(10000, 6), tasks)
	if !ok || d.TaskIndex != 0 || !d.Speculative {
		t.Fatalf("got %+v ok=%v, want speculative copy of stalled task 0", d, ok)
	}
}

func TestLATESpecCap(t *testing.T) {
	l := NewLATE()
	ctx := deadlineCtx(1000, 4)
	ctx.WaveWidth = 10
	ctx.SpeculativeCopies = 1 // cap = max(1, 0.1×10) = 1, already reached
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 100, TNew: 10, Elapsed: 10, Progress: 0.05},
	}
	if _, ok := l.Pick(ctx, tasks); ok {
		t.Fatal("LATE exceeded speculative cap")
	}
}

func TestLATENoSecondSpeculation(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 2, TRem: 100, TNew: 10, Elapsed: 10, Progress: 0.05},
	}
	if _, ok := NewLATE().Pick(deadlineCtx(1000, 1), tasks); ok {
		t.Fatal("LATE launched a third copy")
	}
}

func TestMantriDuplicatesOutlierEvenWithPendingTasks(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 25, TNew: 10}, // ratio 2.5 > 2
		{Index: 1, TNew: 10},
	}
	d, ok := Mantri{}.Pick(deadlineCtx(1000, 2), tasks)
	if !ok || d.TaskIndex != 0 || !d.Speculative {
		t.Fatalf("got %+v, want duplicate of task 0", d)
	}
}

func TestMantriThreshold(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 15, TNew: 10}, // ratio 1.5 < 2
		{Index: 1, TNew: 10},
	}
	d, ok := Mantri{}.Pick(deadlineCtx(1000, 2), tasks)
	if !ok || d.TaskIndex != 1 || d.Speculative {
		t.Fatalf("got %+v, want fresh task 1", d)
	}
}

func TestMantriWorstRatioFirst(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 25, TNew: 10},
		{Index: 1, Running: true, Speculable: true, Copies: 1, TRem: 90, TNew: 10},
	}
	d, ok := Mantri{}.Pick(deadlineCtx(1000, 2), tasks)
	if !ok || d.TaskIndex != 1 {
		t.Fatalf("got %+v, want task 1 (worst outlier)", d)
	}
}

func TestStatelessFactory(t *testing.T) {
	f := Stateless(GS{})
	if f.Name() != "GS" {
		t.Fatal("factory name wrong")
	}
	p1 := f.NewPolicy(1, 10)
	p2 := f.NewPolicy(2, 20)
	if p1 != p2 {
		t.Fatal("stateless factory should reuse the instance")
	}
}

// Property: every decision must reference a task in the view, speculative
// decisions must target running tasks, fresh launches must target idle ones,
// and the copy cap must be respected.
func TestDecisionValidityProperty(t *testing.T) {
	policies := []Policy{GS{}, RAS{}, NewLATE(), Mantri{}, NoSpec{}}
	check := func(seed int64, deadline bool) bool {
		rng := dist.NewRNG(seed)
		n := 1 + rng.Intn(20)
		tasks := make([]TaskView, n)
		for i := range tasks {
			running := rng.Float64() < 0.5
			copies := 0
			if running {
				copies = 1 + rng.Intn(3)
			}
			tasks[i] = TaskView{
				Index:      i,
				Running:    running,
				Speculable: running && rng.Float64() < 0.8,
				Copies:     copies,
				TRem:       rng.Float64() * 20,
				TNew:       0.1 + rng.Float64()*10,
				Elapsed:    rng.Float64() * 10,
				Progress:   rng.Float64(),
			}
		}
		var ctx Ctx
		if deadline {
			ctx = deadlineCtx(rng.Float64()*30, n)
		} else {
			ctx = errorCtx(1+rng.Intn(n), 0, n)
		}
		ctx.WaveWidth = 1 + rng.Intn(20)
		ctx.SpeculativeCopies = rng.Intn(3)
		for _, p := range policies {
			d, ok := p.Pick(ctx, tasks)
			if !ok {
				continue
			}
			if d.TaskIndex < 0 || d.TaskIndex >= n {
				return false
			}
			tv := tasks[d.TaskIndex]
			if d.Speculative != tv.Running {
				return false
			}
			if d.Speculative && tv.Copies >= MaxCopies {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileHelper(t *testing.T) {
	if got := percentile([]float64{4, 1, 3, 2}, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 1); got != 4 {
		t.Fatalf("p1 = %v", got)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// The helper sorts its scratch argument in place (hot-path contract).
	xs := []float64{4, 1, 3, 2}
	percentile(xs, 0.5)
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			t.Fatalf("scratch not sorted in place: %v", xs)
		}
	}
}
