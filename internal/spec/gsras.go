package spec

import (
	"math"

	"github.com/approx-analytics/grass/internal/task"
)

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

// CertifyDecline implements DeclineCertifier (see certifyDecline).
func (GS) CertifyDecline(ctx Ctx, vs *ViewSet) (DeclineCert, bool) { return certifyDecline(ctx, vs) }

// gsDeadlineInc mirrors gsDeadline: minimum (TNew, index) over eligible
// candidates. The full pass reads only the hot records (hot.go), in no
// order, so equal TNews go to the lowest index explicitly. A record's
// progress is divided out only once the task is under the copy cap and its
// TNew meets the deadline and beats the best so far, and a record found no
// candidate leaves the hot set when certRunning certifies it; a record no
// better than the best so far stays hot unevaluated. A same-instant retry
// evaluates only the task changed since (ViewSet.retryDeadline). The
// unscheduled minimum is the order head — if even it exceeds the
// deadline, no unscheduled task qualifies.
func gsDeadlineInc(ctx Ctx, vs *ViewSet) (Decision, bool) {
	rem := ctx.RemainingTime
	best, bestNew, ok := vs.retryDeadline(pickGSDeadline, rem)
	if !ok {
		best = -1
		vs.startDeadline(rem)
		now, med, gt, certify := vs.now, vs.med, vs.groundTruth, vs.certifies()
		for k := vs.quiet; k < len(vs.hot); k++ {
			i := int(vs.hot[k].task)
			r := &vs.recs[i]
			tn := r.tnewAt(med)
			if !(tn > rem) && r.Copies < MaxCopies {
				if best != -1 && !(tn < bestNew || (tn == bestNew && i < best)) {
					continue
				}
				if trem, ok := r.tremAt(now, gt); ok && !(tn >= trem) {
					best, bestNew = i, tn
					continue
				}
			}
			if certify {
				vs.quietOut(k, rem)
			}
		}
		vs.keepDeadline(pickGSDeadline, rem, best, bestNew)
	}
	speculative := best != -1
	if u, ok := vs.MinTNewUnsched(); ok {
		if tn := vs.TNew(u); tn <= rem {
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

// CertifyDecline implements DeclineCertifier: RAS's certificate is GS's
// (see certifyDecline).
func (RAS) CertifyDecline(ctx Ctx, vs *ViewSet) (DeclineCert, bool) { return certifyDecline(ctx, vs) }

// rasDeadlineInc mirrors rasDeadline: best positive saving among running
// tasks within the deadline, else SJF over unscheduled tasks. The full
// pass reads only the hot records, in no order, so equal savings go to the
// lowest index explicitly, and a record found no candidate leaves the hot
// set when certRunning certifies it. A record's progress is divided out
// only once the task is under the copy cap and its TNew meets the
// deadline; a same-instant retry evaluates only the task changed since
// (ViewSet.retryDeadline).
func rasDeadlineInc(ctx Ctx, vs *ViewSet) (Decision, bool) {
	rem := ctx.RemainingTime
	spec, specSaving, ok := vs.retryDeadline(pickRASDeadline, rem)
	if !ok {
		spec = -1
		vs.startDeadline(rem)
		now, med, gt, certify := vs.now, vs.med, vs.groundTruth, vs.certifies()
		for k := vs.quiet; k < len(vs.hot); k++ {
			i := int(vs.hot[k].task)
			r := &vs.recs[i]
			tn := r.tnewAt(med)
			if !(tn > rem) && r.Copies < MaxCopies {
				if trem, ok := r.tremAt(now, gt); ok {
					if s := savingOf(float64(r.Copies), trem, tn); s > 0 {
						if spec == -1 || s > specSaving || (s == specSaving && i < spec) {
							spec, specSaving = i, s
						}
						continue
					}
					if !(trem < tn) {
						// Its t_rem bound from now on is at least t_rem, so
						// certRunning cannot keep it out: it stays hot.
						continue
					}
				}
			}
			if certify {
				vs.quietOut(k, rem)
			}
		}
		vs.keepDeadline(pickRASDeadline, rem, spec, specSaving)
	}
	if spec >= 0 {
		return Decision{TaskIndex: spec, Speculative: true}, true
	}
	if u, ok := vs.MinTNewUnsched(); ok && vs.TNew(u) <= rem {
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

// certEps is the relative margin every bound of a decline certificate
// keeps, far above the few roundings between a bound and the float
// expressions the picks evaluate.
const certEps = 1e-9

// certifyDecline is GS's and RAS's decline certificate for a pick that
// just declined on vs under ctx. Both picks launch only an unscheduled
// task or a speculation candidate: a running task that is speculable,
// under the copy cap, within the deadline and that a fresh copy would beat
// (RAS's positive saving c×t_rem − (c+1)×t_new implies t_rem > t_new as
// well). The certificate argues that none can launch:
//
//   - Record bounds. tremBound bounds the t_rem a running record can show
//     from a progress on. While that bound times (1+certEps) stays below
//     t_new = median × Work × Factor — from the floor term
//     bound(1+certEps)/(Work·Factor) on — the record is never a candidate.
//     A record at MaxCopies, or whose best copy never reports progress, is
//     never one either.
//   - Wake. A young record (progress below MinSpecProgress) that could
//     become a candidate is not one until its copy turns speculable
//     (specFrom), which is when the certificate wakes.
//   - Deadline. RemainingTime only falls, so a task whose t_new exceeds it
//     keeps exceeding it: the unscheduled head, or a record, adds the
//     floor term rem(1+certEps)/(Work·Factor). A speculable record that may
//     still become a candidate leaves no certificate.
//   - Error bound. The launchers are the unscheduled tasks and the
//     speculable records that may become candidates, and a launcher's
//     earliest-set key is its t_new. If at least need running records have
//     t_rem bounds (from now on, which bound their keys) no larger than B,
//     then from the floor term B(1+certEps)/(min Work·Factor) on every
//     launcher's key sorts after those need keys and none is in the
//     earliest set. A completion removes one key and lowers need by one,
//     so the argument survives it.
//
// Ground-truth sets are not certified, nor are sets with an untame median
// or t_new operand, whose products may round without a relative bound.
func certifyDecline(ctx Ctx, vs *ViewSet) (DeclineCert, bool) {
	c := DeclineCert{Wake: math.Inf(1)}
	if vs.groundTruth || !tame(vs.med) || vs.untame > 0 {
		return c, false
	}
	var ok bool
	if ctx.Kind == task.DeadlineBound {
		ok = vs.certifyDeadline(ctx.RemainingTime, &c)
	} else {
		ok = vs.certifyError(ctx.Remaining(), &c)
	}
	return c, ok && c.Holds(vs.now, vs.med)
}

// certifyDeadline builds a deadline pick's certificate in c: the
// unscheduled head and every running record must stay out for good or,
// for a young record, until it turns speculable. The hot records are
// certified here; a quiet record already is, and brings its stored wake
// and floor: the quiet heap's top wake and the largest floor.
func (vs *ViewSet) certifyDeadline(rem float64, c *DeclineCert) bool {
	if u, ok := vs.MinTNewUnsched(); ok {
		t := vs.recs[u].floorTerm(rem)
		if !(t <= vs.med) {
			return false
		}
		c.Floor = max(c.Floor, t)
	}
	vs.hotFor(rem, false)
	for _, h := range vs.hot[vs.quiet:] {
		if _, ok := vs.certRunning(&vs.recs[h.task], rem, c); !ok {
			return false
		}
	}
	if vs.quiet > 0 {
		c.Wake = min(c.Wake, vs.hot[0].wake)
		c.Floor = max(c.Floor, vs.quietFloor())
	}
	return true
}

// certifyError builds an error-bound pick's certificate in c for a set
// that needs need more completions: records that can launch are kept out
// of the earliest set by need running records with smaller bounds. A quiet
// member of the pick (hot.go) brings its stored t_rem bound, wake and
// floor, made from an earlier clock and valid from there on; every other
// running record, a quiet non-member included, is certified here.
func (vs *ViewSet) certifyError(need int, c *DeclineCert) bool {
	if need <= 0 {
		return true
	}
	minWF := math.Inf(1) // the launchers' smallest Work·Factor
	if u, ok := vs.MinTNewUnsched(); ok {
		minWF = vs.recs[u].Work * vs.recs[u].Factor
	}
	if len(vs.running) < need && !math.IsInf(minWF, 1) {
		return false
	}
	keys := vs.run.tmpKeys[:0]
	for k := range vs.running {
		var i int
		if vs.hotOn {
			h := &vs.hot[k]
			i = int(h.task)
			if k < vs.quiet && h.member {
				keys = append(keys, effIdx{eff: h.bound, idx: i})
				c.Wake, c.Floor = min(c.Wake, h.wake), max(c.Floor, h.floor)
				continue
			}
		} else {
			i = vs.running[k]
		}
		r := &vs.recs[i]
		bound, ok := vs.certRunning(r, math.Inf(1), c)
		if !ok {
			if !r.tameKey() {
				return false
			}
			minWF = min(minWF, r.Work*r.Factor)
		}
		keys = append(keys, effIdx{eff: bound, idx: i})
	}
	vs.run.tmpKeys = keys
	if math.IsInf(minWF, 1) {
		return true // nothing can launch
	}
	if len(vs.running) < need {
		return false
	}
	quickselectPairs(keys, need-1)
	t := floorTerm(keys[need-1].eff, minWF)
	if !(t <= vs.med) {
		return false
	}
	c.Floor = max(c.Floor, t)
	return true
}

// certRunning places running record r in certificate c, with rem the
// deadline's remaining time (+Inf for an error bound), and returns the
// record's t_rem bound from now on, which bounds its earliest-set key. A
// record that can never speculate needs nothing; one that can never
// become a candidate from a median at most the set's on raises the floor
// by the smaller of its terms (its t_rem bound from when it may be
// speculated, or rem; floorTerm is monotone); a young one that could
// wakes the certificate when it turns speculable. ok is false for a
// speculable record that may still become a candidate.
func (vs *ViewSet) certRunning(r *TaskRec, rem float64, c *DeclineCert) (bound float64, ok bool) {
	p := progress(vs.now, r.Start, r.Duration)
	bound = r.tremBound(vs.now, p)
	if r.Copies >= MaxCopies || !(r.Duration > 0 && r.Duration < math.Inf(1)) {
		return bound, true
	}
	young := p < MinSpecProgress
	x := bound
	if young {
		x = r.tremBound(vs.now, MinSpecProgress)
	}
	if t := r.floorTerm(min(x, rem)); t <= vs.med {
		c.Floor = max(c.Floor, t)
		return bound, true
	}
	if !young || math.IsInf(r.Start, 0) {
		return bound, false
	}
	c.Wake = min(c.Wake, r.specFrom())
	return bound, true
}

// floorTerm is the smallest median at which t_new = median × wf exceeds x
// with the certificate's margin, x(1+certEps)/wf, and at least minTame so
// that every covered median is positive (x may be 0). A NaN gives +Inf: no
// median is covered.
func floorTerm(x, wf float64) float64 {
	t := x * (1 + certEps) / wf
	if !(t >= 0) {
		return math.Inf(1)
	}
	return max(t, minTame)
}

// floorTerm is the record's floor term for x, +Inf when its t_new
// operands are untame.
func (r *TaskRec) floorTerm(x float64) float64 {
	if !r.tameKey() {
		return math.Inf(1)
	}
	return floorTerm(x, r.Work*r.Factor)
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
