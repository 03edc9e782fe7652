package spec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"github.com/approx-analytics/grass/internal/task"
)

// These property tests hold PickIncremental to Pick over adversarial
// synthetic candidate states: records drawn from tiny discrete alphabets
// so key ties — which a real simulation produces with probability zero,
// but which the first-wins tie-break contract must still resolve
// identically — occur constantly, and every running/unscheduled mix,
// pruning depth and deadline slack gets sampled. The reference views come
// from refView, the scheduler's view formula written out independently.

const testNow = 8.0 // the clock the generated records are laid out around

// refView is the reference view of record r for task i at time now and
// t_new median med — the float expressions the scheduler's from-scratch
// rebuild uses, which ViewSet evaluation must reproduce bit for bit.
func refView(r TaskRec, i int, now, med float64, groundTruth bool) TaskView {
	v := TaskView{Index: i}
	if r.Copies > 0 {
		v.Running = true
		v.Copies = int(r.Copies)
		trueRem := r.End - now
		if trueRem < 0 {
			trueRem = 0
		}
		v.Elapsed = now - r.FirstStart
		if r.Duration > 0 {
			p := (now - r.Start) / r.Duration
			if p > 0.999 {
				p = 0.999
			}
			if p < 0 {
				p = 0
			}
			v.Progress = p
		}
		if groundTruth {
			v.Speculable = true
			v.TRem = trueRem
		} else {
			v.Speculable = v.Progress >= MinSpecProgress
			bias := 1 + (r.TRemBias-1)*(1-v.Progress)
			v.TRem = trueRem * bias
		}
	}
	if groundTruth {
		v.TNew = r.Work * r.Factor
	} else {
		v.TNew = med * r.Work * r.Factor
	}
	return v
}

// model is a test's own account of a ViewSet: the incomplete tasks'
// records and the evaluation inputs.
type model struct {
	recs        map[int]TaskRec
	now, med    float64
	groundTruth bool
}

// views returns the reference views of every incomplete task, ascending.
func (m *model) views() []TaskView {
	idx := make([]int, 0, len(m.recs))
	for i := range m.recs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	views := make([]TaskView, 0, len(idx))
	for _, i := range idx {
		views = append(views, refView(m.recs[i], i, m.now, m.med, m.groundTruth))
	}
	return views
}

// randRec draws a record from tie-dense alphabets. TNew = med × Work ×
// Factor lands on a handful of values, and Factor 2 makes equal keys from
// different operands (work 2 × 1 against work 1 × 2) — the near-tied pairs
// a median move rechecks. A running record's TRem (true remaining time,
// bias 1) shares those values, Progress is 0, 1/4 or 1/2 (0 and a zero
// duration are not speculable), and Elapsed is 0 to 3 (0 disables LATE
// candidacy).
func randRec(rng *rand.Rand, running bool) TaskRec {
	r := TaskRec{Work: float64(1 + rng.Intn(3)), Factor: float64(1 + rng.Intn(2))}
	if !running {
		return r
	}
	r.Copies = int32(1 + rng.Intn(4))
	r.Duration = []float64{0, 4, 4, 4}[rng.Intn(4)]
	r.Start = testNow - float64(rng.Intn(3))
	r.End = testNow + float64(rng.Intn(4))
	if rng.Intn(8) == 0 {
		r.End = testNow - 1 // past its finish: the true remaining time clamps to 0
	}
	r.TRemBias = 1
	if rng.Intn(6) == 0 {
		r.TRemBias = 1.5
	}
	r.FirstStart = testNow - float64(rng.Intn(4))
	return r
}

// randViews builds a random consistent state (ascending indices, possibly
// with completed gaps), its sealed ViewSet and the reference views. Most
// sets are small and tie-dense; one in eight is large with a small
// running set, the shape where EarliestCandidates' binary searches of the
// unscheduled order do the pruning; one in eight is wide, about half of
// up to ~2,000 tasks running — a large phase holding hundreds of slots,
// where the selection over the running keys runs many probes deep. One in
// four sets evaluates in ground-truth mode.
func randViews(rng *rand.Rand) ([]TaskView, *ViewSet, *model) {
	n := 1 + rng.Intn(12)
	runDenom := 2 // half the tasks running
	switch rng.Intn(8) {
	case 0:
		n = 50 + rng.Intn(350)
		runDenom = 10 // a large job's running set is its small slot share
	case 1:
		n = 300 + rng.Intn(1700)
	}
	total := n + rng.Intn(4) // dense size incl. "completed" gaps
	m := &model{recs: map[int]TaskRec{}, now: testNow, med: 1, groundTruth: rng.Intn(4) == 0}
	if !m.groundTruth {
		m.med = []float64{1, 0.5, 2}[rng.Intn(3)]
	}
	vs := &ViewSet{}
	vs.Reset(total, Eval{GroundTruth: m.groundTruth})
	keep := map[int]bool{}
	for _, i := range rng.Perm(total)[:n] {
		keep[i] = true
	}
	for i := 0; i < total; i++ {
		if keep[i] {
			r := randRec(rng, rng.Intn(runDenom) == 0)
			m.recs[i] = r
			vs.Init(i, r)
		}
	}
	vs.Seal(m.now, m.med)
	return m.views(), vs, m
}

func randCtx(rng *rand.Rand, n int) Ctx {
	ctx := Ctx{
		TotalTasks:        n,
		TargetTasks:       1 + rng.Intn(n+1),
		CompletedTasks:    rng.Intn(n),
		WaveWidth:         1 + rng.Intn(20),
		SpeculativeCopies: rng.Intn(3),
	}
	if rng.Intn(2) == 1 {
		ctx.Kind = task.DeadlineBound
		ctx.RemainingTime = []float64{0.5, 1, 1.5, 2, 3, 100}[rng.Intn(6)]
	} else {
		ctx.Kind = task.ErrorBound
	}
	return ctx
}

// TestPickIncrementalMatchesPick cross-checks every incremental policy
// against its reference Pick on thousands of tie-riddled random states.
func TestPickIncrementalMatchesPick(t *testing.T) {
	policies := []IncrementalPolicy{
		NewGS(), NewRAS(), NewLATE(), NewMantri(), NoSpec{},
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 5000; iter++ {
		views, vs, _ := randViews(rng)
		ctx := randCtx(rng, len(views))
		for _, p := range policies {
			want, wantOK := p.Pick(ctx, views)
			got, gotOK := p.PickIncremental(ctx, vs)
			if wantOK != gotOK || (wantOK && want != got) {
				t.Fatalf("iter %d policy %s ctx %+v:\nviews %+v\nPick            = (%+v, %v)\nPickIncremental = (%+v, %v)",
					iter, p.Name(), ctx, views, want, wantOK, got, gotOK)
			}
		}
	}
}

// TestViewSetMaintenance drives random batches of launches, idles, factor
// redraws and completions through a ViewSet the way the scheduler does: a
// batch's events only change the test's model and mark their tasks dirty,
// and the refresh that follows advances the clock, moves the median —
// sometimes to an untame one — and then drops the completed tasks through
// Remove and files every other dirtied task through Update, in ascending
// index order. A task may change several times between refreshes (launched
// and idled, launched and completed), and the median moves while the
// dirtied tasks are still filed under their stale records, so the set must
// locate every task by its stored record. After each refresh the evaluated
// views, the median TNew, the order invariants and every policy decision
// must match the reference — the incremental structures never drift from
// what a rebuild would produce.
func TestViewSetMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	policies := []IncrementalPolicy{
		NewGS(), NewRAS(), NewLATE(), NewMantri(), NoSpec{},
	}
	staleMoves := map[bool]int{} // median moves over stale filing, by tameness
	for iter := 0; iter < 300; iter++ {
		views, vs, m := randViews(rng)
		for batch := 0; batch < 10 && len(m.recs) > 0; batch++ {
			dirty := map[int]bool{}
			var touched []int
			for op := rng.Intn(6); op >= 0 && len(m.recs) > 0; op-- {
				pick := views[rng.Intn(len(views))].Index
				if len(touched) > 0 && rng.Intn(2) == 0 {
					pick = touched[rng.Intn(len(touched))]
				}
				r, ok := m.recs[pick]
				if !ok {
					continue // completed earlier in the batch
				}
				dirty[pick] = true
				touched = append(touched, pick)
				switch rng.Intn(4) {
				case 0: // launch or add a copy
					if r.Copies == 0 {
						nr := randRec(rng, true)
						nr.Work, nr.Factor = r.Work, r.Factor
						r = nr
					} else {
						r.Copies++
					}
				case 1: // the last copy is preempted
					r = TaskRec{Work: r.Work, Factor: r.Factor}
				case 2: // oracle-style factor redraw
					r.Factor = []float64{1, 2, 0.5}[rng.Intn(3)]
				case 3: // completion
					delete(m.recs, pick)
					continue
				}
				m.recs[pick] = r
			}
			// The refresh: clock, median, then the dirtied tasks in order.
			m.now += []float64{0, 0.5, 1}[rng.Intn(3)]
			vs.Begin(m.now)
			if !m.groundTruth {
				old := m.med
				m.med = []float64{0.5, 1, 2, 3, 0.7, 1e-300}[rng.Intn(6)]
				vs.SetMedian(m.med)
				if len(dirty) > 0 && m.med != old {
					staleMoves[tame(old) && tame(m.med)]++
				}
			}
			order := make([]int, 0, len(dirty))
			for i := range dirty {
				order = append(order, i)
			}
			sort.Ints(order)
			for _, i := range order {
				if r, ok := m.recs[i]; ok {
					vs.Update(i, r)
				} else {
					vs.Remove(i)
				}
			}
			views = m.views()
			compact := vs.AppendCompact(nil)
			if len(compact) != len(views) {
				t.Fatalf("iter %d batch %d: compact len %d want %d", iter, batch, len(compact), len(views))
			}
			for i := range compact {
				if compact[i] != views[i] {
					t.Fatalf("iter %d batch %d: view %d diverged: %+v != %+v", iter, batch, i, compact[i], views[i])
				}
			}
			if err := vs.CheckOrder(); err != nil {
				t.Fatalf("iter %d batch %d: %v", iter, batch, err)
			}
			if got, want := vs.MedianTNew(), sortedMedianTNew(compact); got != want {
				t.Fatalf("iter %d batch %d: MedianTNew %v, sorted median %v", iter, batch, got, want)
			}
			if len(views) == 0 {
				break
			}
			ctx := randCtx(rng, len(views))
			for _, p := range policies {
				want, wantOK := p.Pick(ctx, views)
				got, gotOK := p.PickIncremental(ctx, vs)
				if wantOK != gotOK || (wantOK && want != got) {
					t.Fatalf("iter %d batch %d policy %s: Pick (%+v,%v) != PickIncremental (%+v,%v)\nviews %+v",
						iter, batch, p.Name(), want, wantOK, got, gotOK, views)
				}
			}
		}
	}
	if staleMoves[true] == 0 || staleMoves[false] == 0 {
		t.Fatalf("median moves over stale filing: %d tame, %d untame; want both", staleMoves[true], staleMoves[false])
	}
}

// sortedMedianTNew is the median TNew of views by a full sort, with the
// reference averaging for even counts; zero when views is empty.
func sortedMedianTNew(views []TaskView) float64 {
	if len(views) == 0 {
		return 0
	}
	vals := make([]float64, len(views))
	for i, v := range views {
		vals[i] = v.TNew
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// TestViewSetBulkRescale exercises the estimator-bump path: moving the
// median with SetMedian must leave the set answering queries identically
// to a from-scratch build at the new median.
func TestViewSetBulkRescale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		_, vs, m := randViews(rng)
		if m.groundTruth {
			continue
		}
		m.med *= []float64{0.5, 1.0, 1.75, 0.3}[rng.Intn(4)]
		vs.SetMedian(m.med)
		fresh := &ViewSet{}
		fresh.Reset(len(vs.recs), Eval{})
		idx := make([]int, 0, len(m.recs))
		for i := range m.recs {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			fresh.Init(i, m.recs[i])
		}
		fresh.Seal(m.now, m.med)
		if err := vs.CheckOrder(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		ctx := randCtx(rng, len(m.recs))
		for _, p := range []IncrementalPolicy{NewGS(), NewRAS()} {
			a, aok := p.PickIncremental(ctx, vs)
			b, bok := p.PickIncremental(ctx, fresh)
			if aok != bok || (aok && a != b) {
				t.Fatalf("iter %d: rescaled set (%+v,%v) != fresh set (%+v,%v)", iter, a, aok, b, bok)
			}
		}
		if vs.MedianTNew() != fresh.MedianTNew() {
			t.Fatalf("iter %d: median %v != %v after rescale", iter, vs.MedianTNew(), fresh.MedianTNew())
		}
	}
}

// TestViewSetEvalMatchesReference pins evaluation to the reference
// formula on the edge cases: progress clamped at 0.999 past the best
// copy's duration, a negative true remaining time, a zero duration, a
// t_rem bias, and ground-truth mode (median 1, exact TRem, always
// speculable). At, RunningViews and AppendCompact must all agree with it.
func TestViewSetEvalMatchesReference(t *testing.T) {
	recs := []TaskRec{
		{Work: 2, Factor: 1.3}, // unscheduled
		{Work: 1.5, Factor: 0.9, Copies: 1, Start: 1, Duration: 2, End: 3, TRemBias: 1.4, FirstStart: 1}, // p clamps at 0.999, true rem < 0
		{Work: 0.7, Factor: 1.1, Copies: 2, Start: 9, Duration: 0, End: 9, TRemBias: 0.6, FirstStart: 4}, // zero duration, start in the future
		{Work: 3, Factor: 1, Copies: 1, Start: 7, Duration: 10, End: 17, TRemBias: 1.25, FirstStart: 6},  // mid-flight, biased
		{Work: 1, Factor: 2, Copies: 4, Start: 8, Duration: 5, End: 13, TRemBias: 1, FirstStart: 8},      // just launched: p 0
		{Work: 0.1, Factor: 3},
	}
	for _, gt := range []bool{false, true} {
		for _, med := range []float64{1, 0.37, 2.9} {
			vs := &ViewSet{}
			vs.Reset(len(recs)+1, Eval{GroundTruth: gt})
			for i, r := range recs {
				vs.Init(i+1, r) // index 0 stays a completed gap
			}
			vs.Seal(testNow, med)
			if gt {
				med = 1 // ground truth ignores the estimator
			}
			var want []TaskView
			for i, r := range recs {
				v := refView(r, i+1, testNow, med, gt)
				want = append(want, v)
				if got := vs.At(i + 1); got != v {
					t.Fatalf("gt=%v med=%v task %d: At %+v, reference %+v", gt, med, i+1, got, v)
				}
				if got := vs.TNew(i + 1); got != v.TNew {
					t.Fatalf("gt=%v med=%v task %d: TNew %v, reference %v", gt, med, i+1, got, v.TNew)
				}
			}
			for k, v := range vs.RunningViews() {
				if v != want[v.Index-1] || !v.Running || (k > 0 && v.Index <= vs.RunningViews()[k-1].Index) {
					t.Fatalf("gt=%v med=%v: running view %d %+v, reference %+v", gt, med, k, v, want[v.Index-1])
				}
			}
			got := vs.AppendCompact(nil)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("gt=%v med=%v: compact view %d %+v, reference %+v", gt, med, k, got[k], want[k])
				}
			}
		}
	}
	// The clamp and speculability edges, spelled out.
	vs := &ViewSet{}
	vs.Reset(len(recs), Eval{})
	for i, r := range recs {
		vs.Init(i, r)
	}
	vs.Seal(testNow, 1)
	if v := vs.At(1); v.Progress != 0.999 || v.TRem != 0 || !v.Speculable {
		t.Fatalf("overdue copy: %+v, want progress 0.999, TRem 0, speculable", v)
	}
	if v := vs.At(2); v.Progress != 0 || v.Speculable || v.Elapsed != 4 {
		t.Fatalf("zero-duration copy: %+v, want progress 0, not speculable, elapsed 4", v)
	}
}

// TestViewSetRepairsNearTies builds unscheduled neighbours whose keys are
// ~1e-15 apart — the near-ties TestLazyTNewRescaleIsInexact (package
// sched) finds — moves the median so rounding swaps them, and checks that
// SetMedian rechecked the pair and repaired the order.
func TestViewSetRepairsNearTies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	swaps := 0
	for trial := 0; trial < 200000 && swaps < 20; trial++ {
		m1 := 0.5 + rng.Float64()*2
		m2 := m1 * (0.9 + rng.Float64()*0.2)
		w := 0.1 + rng.Float64()*10
		b := 0.5 + rng.Float64()
		w2 := w * (1 + (rng.Float64()-0.5)*1e-15)
		b2 := b * (1 + (rng.Float64()-0.5)*1e-15)
		a1, c1 := m1*w*b, m1*w2*b2
		a2, c2 := m2*w*b, m2*w2*b2
		if a1 == c1 || a2 == c2 || (a1 < c1) == (a2 < c2) {
			continue
		}
		swaps++
		// Task 1 and task 3 are the near-tied pair; tasks 0 and 2 sit far
		// below and above them, and task 4 runs.
		recs := []TaskRec{
			{Work: w / 4, Factor: b},
			{Work: w, Factor: b},
			{Work: 4 * w, Factor: b},
			{Work: w2, Factor: b2},
			{Work: w, Factor: b, Copies: 1, Start: 7, Duration: 2, End: 9, TRemBias: 1, FirstStart: 7},
		}
		vs := &ViewSet{}
		vs.Reset(len(recs), Eval{})
		for i, r := range recs {
			vs.Init(i, r)
		}
		vs.Seal(testNow, m1)
		if len(vs.near) != 1 {
			t.Fatalf("trial %d: %d near-tied pairs marked, want 1", trial, len(vs.near))
		}
		if n := vs.SetMedian(m2); n != 1 {
			t.Fatalf("trial %d: SetMedian rechecked %d pairs, want 1", trial, n)
		}
		if err := vs.CheckOrder(); err != nil {
			t.Fatalf("trial %d: order not repaired: %v", trial, err)
		}
		first, second := 1, 3
		if c2 < a2 {
			first, second = 3, 1
		}
		if want := []int{0, first, second, 2}; fmt.Sprint(vs.uorder) != fmt.Sprint(want) {
			t.Fatalf("trial %d: uorder %v after the swap, want %v", trial, vs.uorder, want)
		}
	}
	if swaps < 20 {
		t.Fatalf("found only %d near-tie swaps", swaps)
	}
}

// TestTaskRecSize pins the per-task record at 64 bytes or less: the
// record replaced a stored 64-byte TaskView, and the heap ceiling of a
// large replay assumes no growth.
func TestTaskRecSize(t *testing.T) {
	if n := unsafe.Sizeof(TaskRec{}); n > 64 {
		t.Fatalf("TaskRec is %d bytes, want at most 64", n)
	}
}

var (
	sinkRunIn []int
	sinkFresh int
)

// BenchmarkEarliestCandidates times the error-bound earliest-set selection
// on a sealed 2,000-task ViewSet as the running set widens toward a large
// phase's share of the default 400-slot cluster, with need cutting shallow
// (a tenth of the tasks) and deep (nine tenths). The running views are
// evaluated once per attempt, so after the warm-up call each iteration is
// the selection alone; it works in the set's reusable scratch and must not
// allocate: scripts/perfwall.sh walls allocs/op at 0.
func BenchmarkEarliestCandidates(b *testing.B) {
	const n = 2000
	cuts := []struct {
		name string
		need int
	}{{"shallow", n / 10}, {"deep", n * 9 / 10}}
	for _, running := range []int{16, 128, 400} {
		for _, cut := range cuts {
			b.Run(fmt.Sprintf("running=%d/need=%s", running, cut.name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(running)))
				isRunning := make([]bool, n)
				for _, i := range rng.Perm(n)[:running] {
					isRunning[i] = true
				}
				vs := &ViewSet{}
				vs.Reset(n, Eval{})
				for i := 0; i < n; i++ {
					r := TaskRec{Work: 0.5 + rng.Float64(), Factor: 1}
					if isRunning[i] {
						// Progress in [0, 1): most are speculable; some
						// finish soon, some straggle.
						start := testNow - rng.Float64()
						r.Copies, r.Start, r.Duration, r.FirstStart = 1, start, 1, start
						r.End, r.TRemBias = testNow+3*rng.Float64(), 1
					}
					vs.Init(i, r)
				}
				vs.Seal(testNow, 1)
				vs.EarliestCandidates(cut.need)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkRunIn, sinkFresh = vs.EarliestCandidates(cut.need)
				}
			})
		}
	}
}
