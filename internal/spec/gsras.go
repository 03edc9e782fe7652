package spec

import "github.com/approx-analytics/grass/internal/task"

// GS is Greedy Speculative scheduling (Pseudocode 1 & 2 with OC = 0): pick
// the launch that most improves the approximation goal right now. For
// deadline-bound jobs that is Shortest Job First over fresh copies and
// beneficial speculative copies; for error-bound jobs it is Longest Job
// First over the tasks needed to reach the bound.
type GS struct{}

// Name returns "GS".
func (GS) Name() string { return "GS" }

// Pick implements Policy.
func (GS) Pick(ctx Ctx, tasks []TaskView) (Decision, bool) {
	if ctx.Kind == task.DeadlineBound {
		return gsDeadline(ctx, tasks)
	}
	return gsError(ctx, tasks)
}

// PickIncremental implements IncrementalPolicy: the same selections as
// Pick, decided in one pass over the running records plus logarithmic
// terms (see ViewSet).
func (GS) PickIncremental(ctx Ctx, vs *ViewSet) (Decision, bool) {
	if ctx.Kind == task.DeadlineBound {
		return gsDeadlineInc(ctx, vs)
	}
	return gsErrorInc(ctx, vs)
}

// gsDeadlineInc mirrors gsDeadline: minimum (TNew, index) over eligible
// candidates. The running records are scanned directly (the set is
// bounded by the job's slot share), and a record's progress is divided out
// only once the task is under the copy cap and its TNew meets the deadline
// and beats the best so far; a same-instant retry evaluates only the task
// changed since (ViewSet.retryDeadline). The unscheduled minimum is the
// order head — if even it exceeds the deadline, no unscheduled task
// qualifies.
func gsDeadlineInc(ctx Ctx, vs *ViewSet) (Decision, bool) {
	best, bestNew, ok := vs.retryDeadline(pickGSDeadline, ctx.RemainingTime)
	if !ok {
		best = -1
		now, med, gt := vs.now, vs.med, vs.groundTruth
		for _, i := range vs.running {
			r := &vs.recs[i]
			tn := r.tnewAt(med)
			if tn > ctx.RemainingTime || r.Copies >= MaxCopies || (best != -1 && !(tn < bestNew)) {
				continue
			}
			if trem, ok := r.tremAt(now, gt); ok && !(tn >= trem) {
				best, bestNew = i, tn
			}
		}
		vs.keepDeadline(pickGSDeadline, ctx.RemainingTime, best, bestNew)
	}
	speculative := best != -1
	if u, ok := vs.MinTNewUnsched(); ok {
		if tn := vs.TNew(u); tn <= ctx.RemainingTime {
			if best == -1 || tn < bestNew || (tn == bestNew && u < best) {
				best, speculative = u, false
			}
		}
	}
	if best == -1 {
		return Decision{}, false
	}
	return Decision{TaskIndex: best, Speculative: speculative}, true
}

// gsErrorInc mirrors gsError: LJF over the earliest set, the running
// candidates keyed by TRem (pickEarliest) against the unscheduled member
// with the largest TNew.
func gsErrorInc(ctx Ctx, vs *ViewSet) (Decision, bool) {
	best, bestKey, fresh := vs.pickEarliest(ctx.Remaining(), false)
	speculative := best >= 0
	if fresh >= 0 {
		if tn := vs.TNew(fresh); best == -1 || tn > bestKey || (tn == bestKey && fresh < best) {
			best, speculative = fresh, false
		}
	}
	if best == -1 {
		return Decision{}, false
	}
	return Decision{TaskIndex: best, Speculative: speculative}, true
}

// gsDeadline: prune tasks that cannot finish by the deadline and speculative
// copies that would not beat the running copy; select the lowest t_new.
func gsDeadline(ctx Ctx, tasks []TaskView) (Decision, bool) {
	best := -1
	var bestNew float64
	for i, t := range tasks {
		if t.TNew > ctx.RemainingTime { // exceeds deadline: prune
			continue
		}
		if t.Running {
			// Pseudocode 1's only speculation checks: a copy must be
			// possible (progress reported, copy budget left) and must beat
			// the running copy. GS deliberately does NOT weigh whether the
			// original would make the deadline anyway — that naive greed is
			// exactly the opportunity cost RAS avoids (§3.1.1).
			if !t.Speculable || t.Copies >= MaxCopies || t.TNew >= t.TRem {
				continue
			}
		}
		if best == -1 || t.TNew < bestNew {
			best, bestNew = i, t.TNew
		}
	}
	if best == -1 {
		return Decision{}, false
	}
	return Decision{TaskIndex: tasks[best].Index, Speculative: tasks[best].Running}, true
}

// gsError: restrict to the tasks that contribute earliest to the error
// bound (the `need` unfinished tasks with smallest effective duration
// min(t_rem, t_new)), then select the one with the largest remaining work —
// LJF, speculating the worst straggler first.
func gsError(ctx Ctx, tasks []TaskView) (Decision, bool) {
	cand := earliestSet(ctx, tasks)
	best := -1
	var bestKey float64
	for _, i := range cand {
		t := tasks[i]
		if t.Running && (!t.Speculable || t.Copies >= MaxCopies || t.TNew >= t.TRem) {
			continue
		}
		key := t.TNew
		if t.Running {
			key = t.TRem
		}
		// Explicit (key, lowest-index) tie-break: cand's order is the
		// quickselect's arbitrary partition order, so a first-wins
		// comparison alone would not be deterministic — and the
		// incremental path reproduces exactly this rule.
		if best == -1 || key > bestKey || (key == bestKey && i < best) {
			best, bestKey = i, key
		}
	}
	if best == -1 {
		return Decision{}, false
	}
	return Decision{TaskIndex: tasks[best].Index, Speculative: tasks[best].Running}, true
}

// RAS is Resource Aware Speculative scheduling (Pseudocode 1 & 2 with
// OC = 1): a speculative copy is launched only when it saves both time and
// resources — c×t_rem − (c+1)×t_new > 0 — and among positive-saving
// candidates the largest saving wins. When no speculation saves resources,
// RAS falls back to the bound's natural ordering of unscheduled tasks (SJF
// for deadlines, LJF for error bounds).
type RAS struct{}

// Name returns "RAS".
func (RAS) Name() string { return "RAS" }

// Pick implements Policy.
func (RAS) Pick(ctx Ctx, tasks []TaskView) (Decision, bool) {
	if ctx.Kind == task.DeadlineBound {
		return rasDeadline(ctx, tasks)
	}
	return rasError(ctx, tasks)
}

// PickIncremental implements IncrementalPolicy: Pick's selections in one
// pass over the running records plus logarithmic terms (see ViewSet).
func (RAS) PickIncremental(ctx Ctx, vs *ViewSet) (Decision, bool) {
	if ctx.Kind == task.DeadlineBound {
		return rasDeadlineInc(ctx, vs)
	}
	return rasErrorInc(ctx, vs)
}

// rasDeadlineInc mirrors rasDeadline: best positive saving among running
// tasks within the deadline, else SJF over unscheduled tasks. A record's
// progress is divided out only once the task is under the copy cap and its
// TNew meets the deadline; a same-instant retry evaluates only the task
// changed since (ViewSet.retryDeadline).
func rasDeadlineInc(ctx Ctx, vs *ViewSet) (Decision, bool) {
	spec, specSaving, ok := vs.retryDeadline(pickRASDeadline, ctx.RemainingTime)
	if !ok {
		spec = -1
		now, med, gt := vs.now, vs.med, vs.groundTruth
		for _, i := range vs.running {
			r := &vs.recs[i]
			tn := r.tnewAt(med)
			if tn > ctx.RemainingTime || r.Copies >= MaxCopies {
				continue
			}
			trem, ok := r.tremAt(now, gt)
			if !ok {
				continue
			}
			if s := savingOf(float64(r.Copies), trem, tn); s > 0 && (spec == -1 || s > specSaving) {
				spec, specSaving = i, s
			}
		}
		vs.keepDeadline(pickRASDeadline, ctx.RemainingTime, spec, specSaving)
	}
	if spec >= 0 {
		return Decision{TaskIndex: spec, Speculative: true}, true
	}
	if u, ok := vs.MinTNewUnsched(); ok && vs.TNew(u) <= ctx.RemainingTime {
		return Decision{TaskIndex: u}, true
	}
	return Decision{}, false
}

// rasErrorInc mirrors rasError: best positive saving inside the earliest
// set (pickEarliest), else LJF over the set's unscheduled tasks.
func rasErrorInc(ctx Ctx, vs *ViewSet) (Decision, bool) {
	spec, _, fresh := vs.pickEarliest(ctx.Remaining(), true)
	if spec >= 0 {
		return Decision{TaskIndex: spec, Speculative: true}, true
	}
	if fresh >= 0 {
		return Decision{TaskIndex: fresh}, true
	}
	return Decision{}, false
}

func rasDeadline(ctx Ctx, tasks []TaskView) (Decision, bool) {
	// Speculation candidates: positive saving, within the deadline.
	spec := -1
	var specSaving float64
	// Fallback: unscheduled tasks by SJF.
	fresh := -1
	var freshNew float64
	for i, t := range tasks {
		if t.TNew > ctx.RemainingTime {
			continue
		}
		if t.Running {
			if !t.Speculable || t.Copies >= MaxCopies {
				continue
			}
			if s := t.Saving(); s > 0 && (spec == -1 || s > specSaving) {
				spec, specSaving = i, s
			}
		} else if fresh == -1 || t.TNew < freshNew {
			fresh, freshNew = i, t.TNew
		}
	}
	if spec >= 0 {
		return Decision{TaskIndex: tasks[spec].Index, Speculative: true}, true
	}
	if fresh >= 0 {
		return Decision{TaskIndex: tasks[fresh].Index}, true
	}
	return Decision{}, false
}

func rasError(ctx Ctx, tasks []TaskView) (Decision, bool) {
	cand := earliestSet(ctx, tasks)
	spec := -1
	var specSaving float64
	fresh := -1
	var freshKey float64
	for _, i := range cand {
		t := tasks[i]
		if t.Running {
			if !t.Speculable || t.Copies >= MaxCopies {
				continue
			}
			// (saving, lowest-index) tie-break — see gsError.
			if s := t.Saving(); s > 0 && (spec == -1 || s > specSaving || (s == specSaving && i < spec)) {
				spec, specSaving = i, s
			}
		} else if fresh == -1 || t.TNew > freshKey || (t.TNew == freshKey && i < fresh) { // LJF over unscheduled
			fresh, freshKey = i, t.TNew
		}
	}
	if spec >= 0 {
		return Decision{TaskIndex: tasks[spec].Index, Speculative: true}, true
	}
	if fresh >= 0 {
		return Decision{TaskIndex: tasks[fresh].Index}, true
	}
	return Decision{}, false
}

// effDuration is a task's realistic effective completion time for the
// error-bound pruning: fresh tasks cost t_new; running tasks finish at the
// earlier of waiting and re-running when a copy could still rescue them,
// and at t_rem otherwise. A deep straggler that cannot be speculated right
// now therefore falls out of the earliest set and a spare unscheduled task
// takes its place — the hedge that makes error bounds cheap.
func effDuration(t TaskView) float64 {
	if !t.Running {
		return t.TNew
	}
	if t.Speculable && t.Copies < MaxCopies {
		if t.TRem < t.TNew {
			return t.TRem
		}
		return t.TNew
	}
	return t.TRem
}

// earliestSet returns the indices (into tasks) of the `need` unfinished
// tasks with the smallest effective duration — the tasks that contribute
// earliest to the error bound (Pseudocode 2's pruning stage). need =
// TargetTasks − CompletedTasks; if more tasks remain than needed, the
// slowest ones are pruned from consideration entirely. Selection uses an
// O(n) quickselect; ties at the threshold are broken by task index for
// determinism. The returned
// indices are in the quickselect's arbitrary partition order — consumers
// must use order-independent (key, lowest-index) tie-breaks, the contract
// the incremental path (pickEarliest) reproduces without a scan.
func earliestSet(ctx Ctx, tasks []TaskView) []int {
	need := ctx.Remaining()
	if need <= 0 {
		return nil
	}
	if need >= len(tasks) {
		idx := make([]int, len(tasks))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	pairs := make([]effIdx, len(tasks))
	for i, t := range tasks {
		pairs[i] = effIdx{eff: effDuration(t), idx: i}
	}
	quickselectPairs(pairs, need-1)
	idx := make([]int, need)
	for i := range idx {
		idx[i] = pairs[i].idx
	}
	return idx
}

type effIdx struct {
	eff float64
	idx int
}

// less orders selection keys by (eff, idx) — a total order, since task
// indices are unique.
func (a effIdx) less(b effIdx) bool {
	if a.eff != b.eff {
		return a.eff < b.eff
	}
	return a.idx < b.idx
}

// quickselectPairs partially orders pairs so the k smallest (by eff, ties
// by idx — deterministic) occupy the first k+1 positions.
func quickselectPairs(xs []effIdx, k int) {
	less := effIdx.less
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot guards against sorted inputs.
		mid := lo + (hi-lo)/2
		if less(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if less(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if less(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for less(xs[i], pivot) {
				i++
			}
			for less(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}
