package spec

import (
	"fmt"
	"math/rand"
	"slices"
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
// running set, the shape where the error-bound picks' binary searches of
// the unscheduled order do the pruning; one in eight is wide, about half of
// up to ~2,000 tasks running — a large phase holding hundreds of slots,
// where the selection over the running keys runs many probes deep. One in
// four sets evaluates in ground-truth mode.
func randViews(rng *rand.Rand) ([]TaskView, *ViewSet, *model) {
	return randViewsWith(rng, randRec)
}

// randViewsWith is randViews with records drawn by gen.
func randViewsWith(rng *rand.Rand, gen func(*rand.Rand, bool) TaskRec) ([]TaskView, *ViewSet, *model) {
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
			r := gen(rng, rng.Intn(runDenom) == 0)
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
		GS{}, RAS{}, NewLATE(), Mantri{}, NoSpec{},
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
		GS{}, RAS{}, NewLATE(), Mantri{}, NoSpec{},
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
		for _, p := range []IncrementalPolicy{GS{}, RAS{}} {
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
		if want := []int{0, first, second, 2}; fmt.Sprint(vs.uorder.list()) != fmt.Sprint(want) {
			t.Fatalf("trial %d: uorder %v after the swap, want %v", trial, vs.uorder.list(), want)
		}
	}
	if swaps < 20 {
		t.Fatalf("found only %d near-tie swaps", swaps)
	}
}

// refEarliest is the reference error-bound earliest set of views at cut
// need, split into the running members' task indices, ascending, and the
// unscheduled member with the largest TNew (ties to the smallest index),
// or -1.
func refEarliest(views []TaskView, need int) ([]int, int) {
	var run []int
	fresh := -1
	var freshT float64
	for _, k := range earliestSet(Ctx{TargetTasks: need}, views) {
		v := views[k]
		if v.Running {
			run = append(run, v.Index)
		} else if fresh == -1 || v.TNew > freshT || (v.TNew == freshT && v.Index < fresh) {
			fresh, freshT = v.Index, v.TNew
		}
	}
	sort.Ints(run)
	return run, fresh
}

// refBest is the reference speculation candidate among the running members
// run (ascending task indices) of views: GS's largest TRem among tasks a
// fresh copy would finish sooner, or with saving set RAS's largest positive
// saving, the lowest index among equals; -1 when no member qualifies.
func refBest(views []TaskView, run []int, saving bool) int {
	byIndex := map[int]TaskView{}
	for _, v := range views {
		byIndex[v.Index] = v
	}
	best := -1
	var bestScore float64
	for _, i := range run {
		v := byIndex[i]
		if !v.Speculable || v.Copies >= MaxCopies {
			continue
		}
		score := v.TRem
		if saving {
			if score = v.Saving(); score <= 0 {
				continue
			}
		} else if v.TNew >= v.TRem {
			continue
		}
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// splitsHot reports whether hint h splits the keys of vs's hot running
// records as the reference running members run (ascending) do: every
// member's key below h.in, every non-member's from h.out on.
func splitsHot(vs *ViewSet, views []TaskView, run []int, h selHint) bool {
	if !h.set || h.out.less(h.in) {
		return false
	}
	for _, v := range views {
		if !v.Running || vs.Quiet(v.Index) != NotQuiet {
			continue
		}
		key := effIdx{eff: effDuration(v), idx: v.Index}
		if _, member := slices.BinarySearch(run, v.Index); member != key.less(h.in) || !member && key.less(h.out) {
			return false
		}
	}
	return true
}

// refBoundary is the boundary an error-bound selection at cut need leaves
// behind, from the reference earliest set: the successor of the largest
// running member's key and the smallest running non-member's key, the
// sentinels standing for an empty side.
func refBoundary(views []TaskView, need int) selHint {
	run, _ := refEarliest(views, need)
	member := map[int]bool{}
	for _, i := range run {
		member[i] = true
	}
	h := selHint{in: lowestKey, out: highestKey, set: true}
	for _, v := range views {
		if !v.Running {
			continue
		}
		key := effIdx{eff: effDuration(v), idx: v.Index}
		if succ := (effIdx{eff: key.eff, idx: key.idx + 1}); member[v.Index] && h.in.less(succ) {
			h.in = succ
		} else if !member[v.Index] && key.less(h.out) {
			h.out = key
		}
	}
	return h
}

// TestSelectionHints holds the warm-started selections to the reference:
// the one-pass error-bound pick (pickEarliest, for GS's and RAS's
// candidates) and MedianTNew must return the reference candidates, fresh
// task and median whatever hint they start from — none, the exact
// boundary, a stale one taken from another state, two of the state's own
// keys, or keys below or above every key. MedianTNew must leave the
// reference boundary behind. The error-bound pick selects over the hot
// records only, and may certify records after it selected, so the
// boundary it leaves need only split the hot keys as the reference does:
// every member below its first key, every non-member from its second on.
// A pick whose need covers every task selects nothing and leaves its hint
// alone.
func TestSelectionHints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, other, _ := randViews(rng)
	// near draws a hint from two of the state's keys: the selection keys of
	// its running tasks and the (TNew, index) keys of its unscheduled ones.
	near := func(views []TaskView, key func(TaskView) effIdx) selHint {
		a, b := key(views[rng.Intn(len(views))]), key(views[rng.Intn(len(views))])
		if b.less(a) {
			a, b = b, a
		}
		return selHint{in: a, out: b, set: true}
	}
	eKey := func(v TaskView) effIdx { return effIdx{eff: effDuration(v), idx: v.Index} }
	mKey := func(v TaskView) effIdx { return effIdx{eff: v.TNew, idx: v.Index} }
	warm := 0 // selections that started from a hint with both sides set
	for iter := 0; iter < 3000; iter++ {
		views, vs, _ := randViews(rng)
		need := rng.Intn(len(views) + 2)
		wantRun, wantFresh := refEarliest(views, need)
		wantMed := sortedMedianTNew(views)
		selects := need > 0 && need < vs.Len()
		exactE := selHint{}
		if selects {
			exactE = refBoundary(views, need)
		}
		vs.MedianTNew()
		exactM := vs.median
		for _, h := range []struct {
			name string
			e, m selHint
		}{
			{"none", selHint{}, selHint{}},
			{"exact", exactE, exactM},
			{"stale", other.earliest, other.median},
			{"near", near(views, eKey), near(views, mKey)},
			{"near", near(views, eKey), near(views, mKey)},
			{"below", selHint{in: lowestKey, out: lowestKey, set: true}, selHint{in: lowestKey, out: lowestKey, set: true}},
			{"above", selHint{in: highestKey, out: highestKey, set: true}, selHint{in: highestKey, out: highestKey, set: true}},
			{"around", selHint{in: lowestKey, out: highestKey, set: true}, selHint{in: lowestKey, out: highestKey, set: true}},
		} {
			if h.e.set && h.e.in != lowestKey && h.e.out != highestKey {
				warm++
			}
			for _, saving := range []bool{false, true} {
				vs.earliest = h.e
				best, _, fresh := vs.pickEarliest(need, saving)
				want := refBest(views, wantRun, saving)
				if best != want || fresh != wantFresh {
					t.Fatalf("iter %d hint %s %+v need %d saving %v: candidate %d fresh %d, reference %d fresh %d (members %v)\nviews %+v",
						iter, h.name, h.e, need, saving, best, fresh, want, wantFresh, wantRun, views)
				}
				if left := vs.earliest; (selects && !splitsHot(vs, views, wantRun, left)) || (!selects && left != h.e) {
					t.Fatalf("iter %d hint %s need %d: left earliest boundary %+v, which does not split the hot keys as members %v",
						iter, h.name, need, left, wantRun)
				}
			}
			// Clear the kept value so the selection runs from the hint.
			vs.median, vs.medKnown = h.m, false
			if got := vs.MedianTNew(); got != wantMed {
				t.Fatalf("iter %d hint %s %+v: MedianTNew %v, reference %v", iter, h.name, h.m, got, wantMed)
			}
			if vs.median != exactM {
				t.Fatalf("iter %d hint %s: left median boundary %+v, want %+v", iter, h.name, vs.median, exactM)
			}
		}
		other = vs
	}
	if warm < 1000 {
		t.Fatalf("only %d selections started from a two-sided hint", warm)
	}
}

// edgeRec is randRec with the edges of the pick conditions mixed in: one
// running record in five has progress exactly MinSpecProgress (0.75 of a
// 5-unit duration, both exact, so the quotient rounds to the constant's
// own double), and randRec already draws copy counts at the cap, copies
// past their finish (the true remaining time clamps to 0), zero durations
// and tie-dense TNew, TRem and saving values.
func edgeRec(rng *rand.Rand, running bool) TaskRec {
	r := randRec(rng, running)
	if running && rng.Intn(5) == 0 {
		r.Start, r.Duration = testNow-0.75, 5
		r.End = r.Start + []float64{5, 1, 0.75}[rng.Intn(3)]
	}
	return r
}

// pickCtxs lists the contexts checkPicks decides under for a set of n
// incomplete tasks whose views are views: error bounds at need 0, 1, n−1,
// n and n+1, and deadlines with no time left, with exactly some task's
// TNew left, and with a little and plenty of slack.
func pickCtxs(views []TaskView) []Ctx {
	n := len(views)
	var ctxs []Ctx
	for _, need := range []int{0, 1, n - 1, n, n + 1} {
		ctxs = append(ctxs, Ctx{Kind: task.ErrorBound, TargetTasks: need, TotalTasks: n})
	}
	slack := []float64{0, 1.5, 100}
	if n > 0 {
		slack = append(slack, views[n/2].TNew)
	}
	for _, rem := range slack {
		ctxs = append(ctxs, Ctx{Kind: task.DeadlineBound, RemainingTime: rem, TargetTasks: n, TotalTasks: n})
	}
	return ctxs
}

// checkPicks holds GS's and RAS's one-pass PickIncremental to the
// reference Pick on the set's AppendCompact views under every context of
// pickCtxs, each error-bound pick started from an absent hint, the stale
// hint a pick on another state left behind, and the exact hint a first
// pick on vs leaves. It returns the hint a pick at half the tasks leaves,
// the next state's stale hint.
func checkPicks(t *testing.T, name string, vs *ViewSet, stale selHint) selHint {
	t.Helper()
	views := vs.AppendCompact(nil)
	for _, ctx := range pickCtxs(views) {
		for _, p := range []IncrementalPolicy{GS{}, RAS{}} {
			want, wantOK := p.Pick(ctx, views)
			for _, hint := range []string{"absent", "stale", "exact"} {
				switch hint {
				case "absent":
					vs.earliest = selHint{}
				case "stale":
					vs.earliest = stale
				case "exact":
					p.PickIncremental(ctx, vs)
				}
				if got, gotOK := p.PickIncremental(ctx, vs); gotOK != wantOK || (wantOK && got != want) {
					t.Fatalf("%s policy %s ctx %+v hint %s: PickIncremental (%+v, %v), Pick (%+v, %v)\nviews %+v",
						name, p.Name(), ctx, hint, got, gotOK, want, wantOK, views)
				}
			}
		}
	}
	vs.earliest = selHint{}
	vs.pickEarliest(vs.Len()/2, false)
	return vs.earliest
}

// TestOnePassPicks holds GS's and RAS's one-pass picks, error and deadline
// bounds, with ground truth on and off, to the reference Pick: first on
// random tie-dense states with the edge records of edgeRec, then along a
// same-clock sequence of the refresh's updates between launch attempts at
// one instant — a running task gaining a copy, a launch, a preemption,
// t_new factor changes of a running and an unscheduled task, completions
// of a running and an unscheduled task — followed by a median move and a
// new clock. Along the sequence the maintained set's views must also equal
// a freshly sealed set's.
func TestOnePassPicks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var stale selHint
	atMin, gts := 0, map[bool]int{}
	for iter := 0; iter < 2000; iter++ {
		_, vs, m := randViewsWith(rng, edgeRec)
		for _, r := range m.recs {
			if r.Copies > 0 && progress(m.now, r.Start, r.Duration) == MinSpecProgress {
				atMin++
			}
		}
		gts[m.groundTruth]++
		stale = checkPicks(t, fmt.Sprintf("iter %d", iter), vs, stale)
	}
	if atMin < 100 || gts[true] == 0 || gts[false] == 0 {
		t.Fatalf("%d running records at MinSpecProgress, %d ground-truth and %d estimated states; want each exercised",
			atMin, gts[true], gts[false])
	}

	running := func(work float64, start, dur, bias float64) TaskRec {
		return TaskRec{Work: work, Factor: 1, Copies: 1, Start: start, Duration: dur, End: start + dur, TRemBias: bias, FirstStart: start}
	}
	for _, gt := range []bool{false, true} {
		recs := map[int]TaskRec{
			0: {Work: 1, Factor: 1},
			1: running(2, 7, 4, 1.2),
			2: {Work: 3, Factor: 1},
			3: running(1.5, 6, 3, 0.9),
			4: running(2.5, 7.5, 2, 1),
			5: {Work: 0.5, Factor: 2},
			7: running(1, 5, 6, 1.1),
		}
		now, med := testNow, 1.3
		if gt {
			med = 1
		}
		build := func() *ViewSet {
			fresh := &ViewSet{}
			fresh.Reset(8, Eval{GroundTruth: gt})
			for i := 0; i < 8; i++ {
				if r, ok := recs[i]; ok {
					fresh.Init(i, r)
				}
			}
			fresh.Seal(now, med)
			return fresh
		}
		vs := build()
		stale := checkPicks(t, fmt.Sprintf("gt=%v sealed", gt), vs, selHint{})
		steps := []struct {
			name string
			do   func()
		}{
			{"copy added", func() {
				r := recs[1]
				r.Copies, r.Start, r.Duration, r.End = 2, 8, 1, 9
				recs[1] = r
				vs.Update(1, r)
			}},
			{"launch", func() {
				recs[0] = TaskRec{Work: 1, Factor: 1, Copies: 1, Start: now, Duration: 2, End: now + 2, TRemBias: 1.3, FirstStart: now}
				vs.Update(0, recs[0])
			}},
			{"preemption", func() {
				recs[3] = TaskRec{Work: 1.5, Factor: 1}
				vs.Update(3, recs[3])
			}},
			{"running factor", func() {
				r := recs[7]
				r.Factor = 1.7
				recs[7] = r
				vs.Update(7, r)
			}},
			{"unscheduled factor", func() {
				recs[2] = TaskRec{Work: 3, Factor: 0.4}
				vs.Update(2, recs[2])
			}},
			{"running completes", func() {
				delete(recs, 4)
				vs.Remove(4)
			}},
			{"unscheduled completes", func() {
				delete(recs, 5)
				vs.Remove(5)
			}},
			{"median move", func() {
				if !gt {
					med = 0.8
				}
				vs.SetMedian(med)
			}},
			{"new clock", func() {
				now++
				vs.Begin(now)
			}},
		}
		for _, st := range steps {
			vs.Begin(now)
			st.do()
			if got, want := vs.AppendCompact(nil), build().AppendCompact(nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("gt=%v after %s: views\n%+v\nfresh set\n%+v", gt, st.name, got, want)
			}
			if err := vs.CheckOrder(); err != nil {
				t.Fatalf("gt=%v after %s: %v", gt, st.name, err)
			}
			stale = checkPicks(t, fmt.Sprintf("gt=%v after %s", gt, st.name), vs, stale)
		}
	}
}

// build returns a freshly sealed set of the model's records over dense
// size n, with its own RunBuf: no hint and no memo.
func (m *model) build(n int) *ViewSet {
	vs := &ViewSet{}
	vs.Reset(n, Eval{GroundTruth: m.groundTruth})
	for i := 0; i < n; i++ {
		if r, ok := m.recs[i]; ok {
			vs.Init(i, r)
		}
	}
	vs.Seal(m.now, m.med)
	return vs
}

// launchRec is record r after a launch at time now: a fresh task's first
// copy, or a speculative copy that becomes the best copy when it finishes
// first. Under ground truth the factor moves on to the next copy's.
func launchRec(rng *rand.Rand, r TaskRec, now float64, groundTruth bool) TaskRec {
	dur := []float64{0, 1, 2, 4}[rng.Intn(4)]
	bias := []float64{1, 1.5}[rng.Intn(2)]
	if r.Copies == 0 {
		r.Start, r.Duration, r.End, r.TRemBias, r.FirstStart = now, dur, now+dur, bias, now
	} else if now+dur < r.End {
		r.Start, r.Duration, r.End, r.TRemBias = now, dur, now+dur, bias
	}
	r.Copies++
	if groundTruth {
		r.Factor = []float64{1, 2, 0.5}[rng.Intn(3)]
	}
	return r
}

// TestPickMemo drives same-instant launch bursts through GS's and RAS's
// picks, error and deadline bounds, with ground truth on and off, on the
// random tie-dense states of TestOnePassPicks, the error bound's need at 0,
// 1, Len−1, Len and past it. Between picks the picked task is mostly
// launched through Update — a fresh or a speculative copy — and otherwise
// one copy of a running task is killed, a running task loses every copy, a
// task completes, the median moves or the clock advances, sometimes two
// changes at once. After every pick the decision must equal the same pick
// on a freshly built set, which has no memo, and the reference Pick on the
// set's AppendCompact views, and MedianTNew must equal the sorted median.
// Every policy, bound and mode must have had retries served from the memo
// with a changed task patched in.
func TestPickMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	patched := map[string]int{}
	for iter := 0; iter < 1000; iter++ {
		_, vs, m := randViewsWith(rng, edgeRec)
		n := len(vs.recs)
		p := []IncrementalPolicy{GS{}, RAS{}}[rng.Intn(2)]
		ctx := Ctx{Kind: task.ErrorBound, TotalTasks: len(m.recs)}
		if rng.Intn(2) == 0 {
			l := len(m.recs)
			ctx.TargetTasks = []int{0, 1, l - 1, l, l + 2}[rng.Intn(5)]
		} else {
			ctx.Kind, ctx.TargetTasks = task.DeadlineBound, len(m.recs)
			ctx.RemainingTime = []float64{0, 1.5, 3, 100}[rng.Intn(4)]
		}
		name := fmt.Sprintf("%s/%v/gt=%v", p.Name(), ctx.Kind, m.groundTruth)
		for step := 0; step < 16 && len(m.recs) > 0; step++ {
			memo := vs.run.memo
			passes := vs.run.Passes()
			got, gotOK := p.PickIncremental(ctx, vs)
			if vs.run.Passes() == passes && memo.vs == vs && memo.changed >= 0 {
				patched[name]++
			}
			want, wantOK := p.PickIncremental(ctx, m.build(n))
			views := vs.AppendCompact(nil)
			ref, refOK := p.Pick(ctx, views)
			if gotOK != wantOK || gotOK != refOK || (gotOK && (got != want || got != ref)) {
				t.Fatalf("iter %d step %d %s ctx %+v: memo pick (%+v, %v), fresh set (%+v, %v), Pick (%+v, %v)\nviews %+v",
					iter, step, name, ctx, got, gotOK, want, wantOK, ref, refOK, views)
			}
			if got, want := vs.MedianTNew(), sortedMedianTNew(views); got != want {
				t.Fatalf("iter %d step %d: MedianTNew %v, sorted median %v", iter, step, got, want)
			}
			for ops := 1 + rng.Intn(4)/3; ops > 0 && len(m.recs) > 0; ops-- {
				idx := make([]int, 0, len(m.recs))
				for i := range m.recs {
					idx = append(idx, i)
				}
				sort.Ints(idx)
				i := idx[rng.Intn(len(idx))]
				r := m.recs[i]
				_, pickedLeft := m.recs[got.TaskIndex]
				switch op := rng.Intn(12); {
				case op < 7 && gotOK && pickedLeft:
					i = got.TaskIndex
					r = launchRec(rng, m.recs[i], m.now, m.groundTruth)
				case op < 8 && r.Copies > 1: // one copy killed
					r.Copies--
					r.End = m.now + float64(rng.Intn(3))
				case op < 9 && r.Copies > 0: // every copy lost
					r = TaskRec{Work: r.Work, Factor: r.Factor}
				case op < 10:
					delete(m.recs, i)
					vs.Remove(i)
					continue
				case op < 11 && !m.groundTruth:
					m.med = []float64{0.5, 1, 1.3, 2}[rng.Intn(4)]
					vs.SetMedian(m.med)
					continue
				default:
					m.now += []float64{0.25, 0.5}[rng.Intn(2)]
					vs.Begin(m.now)
					continue
				}
				m.recs[i] = r
				vs.Update(i, r)
			}
		}
	}
	for _, p := range []string{"GS", "RAS"} {
		for _, k := range []task.BoundKind{task.ErrorBound, task.DeadlineBound} {
			for _, gt := range []bool{false, true} {
				if name := fmt.Sprintf("%s/%v/gt=%v", p, k, gt); patched[name] < 50 {
					t.Errorf("%s: %d retries served with a patched task, want at least 50", name, patched[name])
				}
			}
		}
	}
}

// TestWindow holds the unscheduled lists' window to a plain slice over
// removals and insertions at the head, the middle and the tail, checks
// that a head removal shifts nothing and a front insertion reuses the
// slack it left, and that Reset keeps the capacity: rebuilding a set of
// the same size allocates nothing.
func TestWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var w window
	var ref []int
	for op := 0; op < 20000; op++ {
		n := len(ref)
		p := []int{0, n / 2, n}[rng.Intn(3)]
		if n > 0 && rng.Intn(5) == 0 {
			p = rng.Intn(n + 1)
		}
		if n > 0 && rng.Intn(2) == 0 {
			p = min(p, n-1)
			w.remove(p)
			ref = slices.Delete(ref, p, p+1)
		} else {
			w.insert(p, op)
			ref = slices.Insert(ref, p, op)
		}
		if fmt.Sprint(w.list()) != fmt.Sprint(ref) {
			t.Fatalf("op %d: window %v, want %v", op, w.list(), ref)
		}
	}

	w.reset()
	for i := 0; i < 10; i++ {
		w.push(i)
	}
	back := &w.s[9]
	w.remove(0)
	if w.head != 1 || &w.s[9] != back || w.s[9] != 9 {
		t.Fatalf("head removal: head %d, back entry moved or changed", w.head)
	}
	w.insert(1, 100) // front half: shifts the head entry into the slack
	if w.head != 0 || fmt.Sprint(w.list()) != "[1 100 2 3 4 5 6 7 8 9]" {
		t.Fatalf("front insertion: head %d, list %v", w.head, w.list())
	}
	w.remove(8) // back half: the tail shifts
	if w.head != 0 || fmt.Sprint(w.list()) != "[1 100 2 3 4 5 6 7 9]" {
		t.Fatalf("tail removal: head %d, list %v", w.head, w.list())
	}

	const n = 500
	vs := &ViewSet{}
	build := func() {
		vs.Reset(n, Eval{Buf: vs.run})
		for i := 0; i < n; i++ {
			vs.Init(i, TaskRec{Work: float64(1 + i%7), Factor: 1})
		}
	}
	build()
	vs.Seal(testNow, 1)
	for k := 0; k < n/2; k++ {
		u, _ := vs.MinTNewUnsched()
		vs.Update(u, TaskRec{Work: vs.recs[u].Work, Factor: 1, Copies: 1, Duration: 1, End: testNow + 1})
	}
	if err := vs.CheckOrder(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, build); a != 0 {
		t.Fatalf("rebuilding a set of the same size allocated %v times, want 0", a)
	}
	if vs.unsched.head != 0 || vs.uorder.head != 0 || vs.uorder.len() != n {
		t.Fatalf("after Reset: heads %d and %d, uorder length %d", vs.unsched.head, vs.uorder.head, vs.uorder.len())
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
	sinkDecision Decision
	sinkOK       bool
)

// pickBenchSet builds the benchmark phase: n tasks, running of them
// running and scattered over the index range, sealed at testNow with
// median 1.
func pickBenchSet(n, running int) *ViewSet {
	rng := rand.New(rand.NewSource(int64(running)))
	isRunning := make([]bool, n)
	for _, i := range rng.Perm(n)[:running] {
		isRunning[i] = true
	}
	vs := &ViewSet{}
	vs.Reset(n, Eval{})
	for i := 0; i < n; i++ {
		r := TaskRec{Work: 0.5 + rng.Float64(), Factor: 0.8 + 0.4*rng.Float64()}
		if isRunning[i] {
			// Progress spread over [0, 1): most copies are speculable,
			// some finish soon, some straggle.
			dur := 1 + 3*rng.Float64()
			start := testNow - dur*rng.Float64()
			r.Copies, r.Start, r.Duration, r.FirstStart = 1, start, dur, start
			r.End, r.TRemBias = start+dur, 0.7+0.6*rng.Float64()
		}
		vs.Init(i, r)
	}
	vs.Seal(testNow, 1)
	return vs
}

// pickBenchRuns runs bench for GS and RAS, error and deadline bound, on
// pickBenchSet phases of 4,000 tasks with 16, 128 and 400 running — the
// running set widening toward a large phase's share of the default
// 400-slot cluster. The error-bound cut is a tenth of the tasks; the
// deadline leaves every fresh copy in time.
func pickBenchRuns(b *testing.B, bench func(b *testing.B, p IncrementalPolicy, ctx Ctx, vs *ViewSet)) {
	const n = 4000
	for _, running := range []int{16, 128, 400} {
		for _, p := range []IncrementalPolicy{GS{}, RAS{}} {
			for _, kind := range []task.BoundKind{task.ErrorBound, task.DeadlineBound} {
				name := map[task.BoundKind]string{task.ErrorBound: "error", task.DeadlineBound: "deadline"}[kind]
				b.Run(fmt.Sprintf("%s/%s/running=%d", p.Name(), name, running), func(b *testing.B) {
					ctx := Ctx{Kind: kind, TargetTasks: n / 10, TotalTasks: n, RemainingTime: 2}
					bench(b, p, ctx, pickBenchSet(n, running))
				})
			}
		}
	}
}

// BenchmarkPickFreshClock prices one GS or RAS pick, error and deadline
// bound, at a new clock: every iteration moves the set's clock, as the
// first launch attempt at each simulated instant does, so the pick
// evaluates its running records afresh. The error-bound selection starts
// from the previous iteration's boundary, as repeated attempts on one job
// do. The clock cycles through a window of 1/8 time unit so the state
// stays the same shape however many iterations run. A pick works in the
// set's reusable scratch and must not allocate: scripts/perfwall.sh walls
// allocs/op at 0.
func BenchmarkPickFreshClock(b *testing.B) {
	pickBenchRuns(b, func(b *testing.B, p IncrementalPolicy, ctx Ctx, vs *ViewSet) {
		vs.Begin(testNow)
		p.PickIncremental(ctx, vs) // grow the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vs.Begin(testNow + float64(i%1024+1)/8192)
			sinkDecision, sinkOK = p.PickIncremental(ctx, vs)
		}
	})
}

// BenchmarkPickBurst prices the launch attempts of a same-instant burst —
// the fair scheduler offering a job far below its share several slots at
// one instant: each pick is followed by the launch of the picked task, a
// fresh or a speculative copy, filed through Update, so every pick but a
// burst's first is a retry the pick memo serves. A burst makes 8 launches;
// then the launched tasks are filed back as they were and the clock moves
// (within 1/8 time unit), so the state keeps its shape however many
// iterations run. One op is one pick and its launch, with the burst's full
// pass and its restore amortized over it. Like the fresh-clock pick it
// must not allocate: scripts/perfwall.sh walls allocs/op at 0.
func BenchmarkPickBurst(b *testing.B) {
	const burst = 8
	pickBenchRuns(b, func(b *testing.B, p IncrementalPolicy, ctx Ctx, vs *ViewSet) {
		var launched [burst]int
		var saved [burst]TaskRec
		k, now := 0, testNow
		step := func(i int) {
			if k == burst {
				for k--; k >= 0; k-- {
					vs.Update(launched[k], saved[k])
				}
				k, now = 0, testNow+float64(i%1024+1)/8192
				vs.Begin(now)
			}
			d, ok := p.PickIncremental(ctx, vs)
			if !ok {
				panic("spec: benchmark pick declined")
			}
			r := vs.recs[d.TaskIndex]
			launched[k], saved[k] = d.TaskIndex, r
			k++
			if r.Copies == 0 {
				r.Start, r.Duration, r.End, r.TRemBias, r.FirstStart = now, 2, now+2, 1, now
			}
			r.Copies++
			vs.Update(d.TaskIndex, r)
		}
		for i := 0; i < 2*burst; i++ {
			step(i) // grow the scratch
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
	})
}
