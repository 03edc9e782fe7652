package spec

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// ViewSet is the incrementally maintained candidate state of one job's
// current phase — the structure that lets a launch attempt work from the
// job's running set instead of rebuilding and rescanning every incomplete
// task (O(tasks) per attempt).
//
// It stores, per task, only what neither the clock nor the estimator
// moves: one TaskRec (the task's work and t_new factor, its best copy's
// start, duration, end and t_rem bias, its first start and its copy
// count). Views are evaluated from the records when a policy reads them,
// with the set's clock and t_new median: TNew = median × Work × Factor,
// and a running task's TRem, Progress, Elapsed and Speculable are the
// scheduler's float expressions at the current time. So time passing and
// the estimator's median moving dirty nothing; the scheduler re-derives a
// record only when an event changed its task.
//
// Besides the records the set keeps three lists the policies select from:
//
//   - running: indices of tasks with at least one executing copy,
//     ascending by index — the scan order the reference Pick sees, so
//     first-wins tie-breaks match exactly;
//   - unsched: indices of incomplete tasks with no copy, ascending by
//     index — FIFO launch order for the approximation-oblivious baselines;
//   - uorder: the same unscheduled tasks sorted by (TNew, index) — SJF's
//     pick is its head, and the error-bound earliest set's unscheduled
//     members are a prefix of it.
//
// Running views are evaluated at most once per launch attempt: the first
// read after Begin evaluates every running task's view into a buffer in
// running-list order (RunningViews), valid until the next Begin or
// mutation. Policies read running views by position in that buffer. For r
// running and u unscheduled tasks the deadline picks cost O(r) per
// attempt, and the error-bound earliest set (EarliestCandidates) and the
// median TNew cost O(r) expected plus O(log r · log u): a quickselect over
// the running keys whose probes binary-search uorder.
//
// The (TNew, index) order survives a median move almost for free. A key
// is fl(fl(m·w)·f), within a factor (1 ± u)² of the exact product m·w·f
// (u = 2⁻⁵³) while every operand is tame (see tame). Two uorder
// neighbours whose keys are more than nearULPs representable steps apart
// under one tame median therefore have exact products more than
// ((1+u)/(1−u))⁴ apart, and keep their order under every tame median; so
// do neighbours with identical operands, whose keys stay equal. The set
// marks each neighbour pair when it becomes adjacent and keeps the mark —
// removing the task between two safe pairs leaves a safe pair, by
// transitivity — and a median move rechecks only the near-tied pairs
// (SetMedian). A ground-truth set's median is 1 and never moves: its keys
// change only when a launch moves a task on to its next copy's duration
// factor, which already dirties the task.
//
// The scheduler owns maintenance, and the set has one write path: an event
// only marks its task dirty, and the refresh before the next launch attempt
// re-derives each dirtied record and files it through Update (or drops a
// completed task through Remove). Each task sits in the lists its stored
// record calls for, filed under that record's key, so between refreshes
// the stored record, not the task's current state, locates it. Query
// methods are only valid after the refresh; PickIncremental
// implementations must not mutate the set.
type ViewSet struct {
	recs    []TaskRec
	running []int
	unsched []int
	uorder  []int
	// near lists the uorder tasks whose pair with their uorder successor is
	// near-tied (TaskRec.near points back into it).
	near   []int
	sealed bool

	// The evaluation inputs: the clock, the t_new median and the mode.
	now, med    float64
	groundTruth bool

	// run holds the attempt's running views and query scratch, shared by
	// the scheduler's sets.
	run *RunBuf
}

// TaskRec is what a ViewSet stores for one task: the inputs of its view
// that neither the clock nor the estimator moves. Callers fill the
// exported fields; the set maintains the rest. The record is 64 bytes.
type TaskRec struct {
	// Work is the task's work and Factor its t_new factor — the
	// estimator's persistent t_new bias, or in ground-truth mode the
	// duration factor its next copy will draw. TNew = median × Work ×
	// Factor.
	Work, Factor float64
	// Start, Duration, End and TRemBias describe the best (earliest-
	// finishing) running copy: its launch time, ground-truth duration,
	// finish time (Start + Duration, as the scheduler computed it) and
	// persistent t_rem bias. Unused when Copies is 0.
	Start, Duration, End, TRemBias float64
	// FirstStart is when the oldest running copy launched.
	FirstStart float64
	// Copies is the number of running copies; 0 means unscheduled.
	Copies int32
	// near is one plus the task's position in ViewSet.near while the uorder
	// pair it heads is near-tied, else 0.
	near int32
}

// RunBuf holds what one launch attempt evaluates: a ViewSet's running
// views, evaluated once per attempt, and the selection scratch its queries
// reuse. ViewSets whose attempts never overlap — every job of one
// simulator — share one, so its capacity is paid once.
type RunBuf struct {
	owner *ViewSet
	views []TaskView
	// runKeys holds the running tasks' selection keys in running order,
	// selKeys the copy each selection permutes, and runIn backs
	// EarliestCandidates' returned positions, valid until the next call.
	runKeys []effIdx
	selKeys []effIdx
	runIn   []int
}

// Eval says how a ViewSet turns records into views.
type Eval struct {
	// GroundTruth selects the oracle's exact views: TRem is the true
	// remaining time, every running task is speculable, and the t_new
	// median is 1.
	GroundTruth bool
	// Buf is the running-view buffer to share; nil gives the set a fresh
	// one.
	Buf *RunBuf
}

// Reset clears the set for a fresh phase of n tasks, keeping capacity.
func (vs *ViewSet) Reset(n int, e Eval) {
	vs.dropRun()
	if cap(vs.recs) < n {
		vs.recs = make([]TaskRec, n)
	}
	vs.recs = vs.recs[:n]
	clear(vs.recs)
	vs.running = vs.running[:0]
	vs.unsched = vs.unsched[:0]
	vs.uorder = vs.uorder[:0]
	vs.near = vs.near[:0]
	vs.sealed = false
	vs.groundTruth, vs.run = e.GroundTruth, e.Buf
	if vs.run == nil {
		vs.run = new(RunBuf)
	}
}

// Init records task i's initial state during the build phase. Tasks must
// be supplied in ascending index order (the membership lists inherit it);
// call Seal once every incomplete task is in.
func (vs *ViewSet) Init(i int, r TaskRec) {
	if vs.sealed {
		panic("spec: ViewSet.Init after Seal")
	}
	r.near = 0
	vs.recs[i] = r
	if r.Copies > 0 {
		vs.running = append(vs.running, i)
	} else {
		vs.unsched = append(vs.unsched, i)
		vs.uorder = append(vs.uorder, i)
	}
}

// Seal finishes the build at time now and t_new median med (1 in
// ground-truth mode): the (TNew, index) order is sorted once, after which
// all maintenance is incremental.
func (vs *ViewSet) Seal(now, med float64) {
	if vs.groundTruth {
		med = 1
	}
	vs.now, vs.med = now, med
	vs.sortUorder()
	vs.sealed = true
}

// Begin starts a launch attempt at time now: running views are evaluated
// afresh on the next read.
func (vs *ViewSet) Begin(now float64) {
	vs.now = now
	vs.dropRun()
}

// SetMedian moves the t_new median to med and restores the (TNew, index)
// order of the unscheduled tasks, returning how many neighbour pairs it
// rechecked. Between tame medians only the near-tied pairs can swap, so
// only they are rechecked, located by binary search under the old median;
// a move to or from an untame median re-sorts and re-marks every pair. A
// broken pair — which the proof allows only among near ties — is repaired
// by one sort.
func (vs *ViewSet) SetMedian(med float64) int {
	if vs.groundTruth || med == vs.med {
		return 0
	}
	vs.dropRun()
	if !tame(vs.med) || !tame(med) {
		vs.med = med
		vs.sortUorder()
		return max(len(vs.uorder)-1, 0)
	}
	broken := false
	for _, a := range vs.near {
		b := vs.uorder[vs.uorderPos(a)+1]
		broken = broken || keyAt(med, &vs.recs[b], b).less(keyAt(med, &vs.recs[a], a))
	}
	n := len(vs.near)
	vs.med = med
	if broken {
		vs.sortUorder()
	}
	return n
}

// Len returns the number of incomplete tasks in the set.
func (vs *ViewSet) Len() int { return len(vs.running) + len(vs.unsched) }

// At evaluates the current view of task i. Only meaningful for incomplete
// tasks of the phase; policies read running views through RunningViews,
// which evaluates each once per attempt.
func (vs *ViewSet) At(i int) TaskView {
	var v TaskView
	vs.eval(&v, i)
	return v
}

// eval writes task i's current view to v.
func (vs *ViewSet) eval(v *TaskView, i int) {
	r := &vs.recs[i]
	*v = TaskView{Index: i, TNew: vs.med * r.Work * r.Factor}
	if r.Copies == 0 {
		return
	}
	now := vs.now
	v.Running = true
	v.Copies = int(r.Copies)
	trueRem := r.End - now
	if trueRem < 0 {
		trueRem = 0
	}
	v.Elapsed = now - r.FirstStart
	v.Progress = progress(now, r.Start, r.Duration)
	if vs.groundTruth {
		v.Speculable = true
		v.TRem = trueRem
	} else {
		v.Speculable = v.Progress >= MinSpecProgress
		v.TRem = TRemEstimate(trueRem, r.TRemBias, v.Progress)
	}
}

// TRemEstimate is the t_rem estimate of a copy whose true remaining time
// is rem, whose persistent t_rem bias is bias and whose progress is p. The
// bias's error shrinks as progress accumulates: a nearly-done copy's
// remaining time is well known.
func TRemEstimate(rem, bias, p float64) float64 {
	return rem * (1 + (bias-1)*(1-p))
}

// progress is a running view's Progress at time now: the best copy's
// elapsed fraction of its duration, clamped to [0, 0.999], and 0 unless
// the duration is positive. It never decreases as now grows: each step
// rounds monotonically.
func progress(now, start, duration float64) float64 {
	if !(duration > 0) {
		return 0
	}
	p := (now - start) / duration
	if p > 0.999 {
		p = 0.999
	}
	if p < 0 {
		p = 0
	}
	return p
}

// TNew returns task i's fresh-copy estimate, median × work × factor.
func (vs *ViewSet) TNew(i int) float64 {
	r := &vs.recs[i]
	return vs.med * r.Work * r.Factor
}

// RunningViews returns the views of the tasks with at least one executing
// copy, ascending by index, evaluated on the first call of the attempt.
// The slice is valid until the next Begin or mutation of any set sharing
// the buffer; callers must not mutate or retain it.
func (vs *ViewSet) RunningViews() []TaskView {
	b := vs.run
	if b.owner != vs {
		views := slices.Grow(b.views[:0], len(vs.running))[:len(vs.running)]
		for k, i := range vs.running {
			vs.eval(&views[k], i)
		}
		b.views, b.owner = views, vs
	}
	return b.views
}

// FirstUnsched returns the lowest-index unscheduled task — the FIFO
// launch the approximation-oblivious baselines start from.
func (vs *ViewSet) FirstUnsched() (int, bool) {
	if len(vs.unsched) == 0 {
		return 0, false
	}
	return vs.unsched[0], true
}

// MinTNewUnsched returns the unscheduled task with the smallest
// (TNew, index) — SJF's pick, the head of uorder.
func (vs *ViewSet) MinTNewUnsched() (int, bool) {
	if len(vs.uorder) == 0 {
		return 0, false
	}
	return vs.uorder[0], true
}

// MedianTNew returns the median TNew across every incomplete task, with
// the reference implementation's exact averaging for even counts — the
// quantity GRASS's static switching rule and the oracle's exact two-wave
// test need. Zero when the set is empty. It runs the earliest-set
// selection on TNew keys: the h = n/2 smallest keys split off, the median
// is the smallest key outside them, averaged for even n with the largest
// key inside.
func (vs *ViewSet) MedianTNew() float64 {
	n := vs.Len()
	if n == 0 {
		return 0
	}
	h := n / 2
	b := vs.run
	keys := b.selKeys[:0]
	for _, i := range vs.running {
		keys = append(keys, vs.tnewKey(i))
	}
	b.selKeys = keys
	j, maxIn, minOut := vs.selectRunning(keys, h)
	// h-j unscheduled tasks are inside; uorder[h-j] is the smallest
	// unscheduled one outside.
	above := minOut.eff
	if u := h - j; u < len(vs.uorder) {
		if t := vs.TNew(vs.uorder[u]); j == len(keys) || t < above {
			above = t
		}
	}
	if n%2 == 1 {
		return above
	}
	below := maxIn.eff
	if u := h - j; u > 0 {
		if t := vs.TNew(vs.uorder[u-1]); j == 0 || t > below {
			below = t
		}
	}
	return (below + above) / 2
}

// Update files task i under its re-derived record r. A task whose copy
// count crossed zero moves between the running and unscheduled lists, and
// an unscheduled task whose key operands changed (an oracle redraw) moves
// in uorder; either way it is first unfiled under the stored record, the
// one it is filed under.
func (vs *ViewSet) Update(i int, r TaskRec) {
	vs.dropRun()
	old := &vs.recs[i]
	moved := (old.Copies > 0) != (r.Copies > 0) ||
		(r.Copies == 0 && (old.Work != r.Work || old.Factor != r.Factor))
	if !moved {
		r.near = old.near
		*old = r
		return
	}
	vs.unfile(i)
	r.near = 0
	*old = r
	if r.Copies > 0 {
		vs.running = insertSortedInt(vs.running, i)
		return
	}
	vs.unsched = insertSortedInt(vs.unsched, i)
	vs.uorderInsert(i)
}

// Remove drops completed task i from the set.
func (vs *ViewSet) Remove(i int) {
	vs.dropRun()
	vs.unfile(i)
}

// unfile drops task i from the lists its stored record filed it in. The
// uorder search compares through the stored records, so the entry must
// still carry the key it is filed under while it is being located.
func (vs *ViewSet) unfile(i int) {
	if vs.recs[i].Copies > 0 {
		vs.running = removeSortedInt(vs.running, i, "running")
		return
	}
	vs.unsched = removeSortedInt(vs.unsched, i, "unsched")
	vs.uorderRemove(i)
}

// AppendCompact appends the views of every incomplete task in ascending
// index order — the exact slice a from-scratch rebuild would produce,
// which the differential tests compare against. Running views come from
// the attempt's buffer, so the comparison covers what the policies read.
func (vs *ViewSet) AppendCompact(dst []TaskView) []TaskView {
	rv := vs.RunningViews()
	ri, ui := 0, 0
	for ri < len(rv) || ui < len(vs.unsched) {
		if ui == len(vs.unsched) || (ri < len(rv) && vs.running[ri] < vs.unsched[ui]) {
			dst = append(dst, rv[ri])
			ri++
		} else {
			dst = append(dst, vs.At(vs.unsched[ui]))
			ui++
		}
	}
	return dst
}

// CheckOrder verifies the (TNew, index) order of the unscheduled tasks
// under the current keys and the near-tie bookkeeping — the invariants
// every keyed search relies on. The differential tests call it at every
// launch attempt.
func (vs *ViewSet) CheckOrder() error {
	for k := 1; k < len(vs.uorder); k++ {
		if a, b := vs.uorder[k-1], vs.uorder[k]; !vs.tnewKey(a).less(vs.tnewKey(b)) {
			return fmt.Errorf("uorder[%d] task %d (tnew %v) does not sort before task %d (tnew %v) at median %v",
				k-1, a, vs.TNew(a), b, vs.TNew(b), vs.med)
		}
	}
	for k, a := range vs.near {
		if int(vs.recs[a].near) != k+1 {
			return fmt.Errorf("near[%d] task %d points back to %d", k, a, vs.recs[a].near-1)
		}
		if p := vs.uorderSearch(vs.tnewKey(a)); p+1 >= len(vs.uorder) || vs.uorder[p] != a {
			return fmt.Errorf("near[%d] task %d heads no uorder pair", k, a)
		}
	}
	return nil
}

// EarliestCandidates identifies, among the `need` incomplete tasks with
// the smallest (effDuration, index) — exactly the reference earliestSet's
// quickselect order — the running members and the unscheduled fresh-launch
// candidate:
//
//   - runIn holds the running members' positions in RunningViews,
//     ascending (the reference selection's scan order);
//   - fresh is the unscheduled member with the largest TNew, ties broken
//     to the smallest index (LJF's pick inside the set), or -1 when the
//     set contains no unscheduled task.
//
// runIn aliases the attempt's scratch, valid until the next call or update.
// Cost is O(r) expected plus O(log r · log u) for r running and u
// unscheduled tasks (see selectRunning), where the reference quickselects
// every incomplete task.
func (vs *ViewSet) EarliestCandidates(need int) ([]int, int) {
	b := vs.run
	runIn := b.runIn[:0]
	if need <= 0 {
		return runIn, -1
	}
	rv := vs.RunningViews()
	if need >= vs.Len() {
		for k := range rv {
			runIn = append(runIn, k)
		}
		b.runIn = runIn
		return runIn, vs.ljfUnsched(len(vs.uorder))
	}
	// An unscheduled task's effDuration is its TNew, so uorder is already
	// in selection-key order and only the running keys need selecting.
	keys := b.runKeys[:0]
	for k := range rv {
		keys = append(keys, effIdx{eff: effDuration(rv[k]), idx: rv[k].Index})
	}
	b.runKeys = keys
	sel := append(b.selKeys[:0], keys...)
	b.selKeys = sel
	j, _, minOut := vs.selectRunning(sel, need)
	// The members are the running keys below minOut; filtering the keys in
	// running order keeps runIn ascending whatever order the selection
	// left its copy in.
	for k, key := range keys {
		if j == len(keys) || key.less(minOut) {
			runIn = append(runIn, k)
		}
	}
	b.runIn = runIn
	return runIn, vs.ljfUnsched(need - j)
}

// selectRunning splits the union of keys — the running tasks' selection
// keys, in any order — and the unscheduled tasks' (TNew, index) keys, in
// uorder, at its `need` smallest members. It returns how many of the
// members are running keys (j), the largest running member (meaningful
// when j > 0) and the smallest running non-member (meaningful when
// j < len(keys)), leaving keys[:j] holding the running members.
//
// The m-th smallest running key (0-based) is a member iff the unscheduled
// keys below it plus the m running keys below it leave room:
// unschedBelow + m < need. The left side grows strictly with m, so the
// running members are a prefix of the running keys in key order, and a
// quickselect finds the boundary: each partition of the still-undecided
// range lands its pivot at its rank m, one binary search of uorder says
// which side of the boundary the pivot is on, and the other side of the
// range is decided. That is O(r) expected partitioning and O(log r)
// expected probes.
func (vs *ViewSet) selectRunning(keys []effIdx, need int) (j int, maxIn, minOut effIdx) {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := partitionPairs(keys, lo, hi)
		k := keys[m]
		if m < need && vs.uorderSearch(k)+m < need {
			lo, maxIn = m+1, k
		} else {
			hi, minOut = m, k
		}
	}
	return lo, maxIn, minOut
}

// partitionPairs partitions xs[lo:hi] around a median-of-three pivot and
// returns the pivot's final position p: xs[lo:p] < xs[p] < xs[p+1:hi].
// Unlike quickselectPairs' Hoare partition, which only splits the range,
// it pins the pivot's rank — what selectRunning's probes need.
func partitionPairs(xs []effIdx, lo, hi int) int {
	mid, last := lo+(hi-lo)/2, hi-1
	if xs[mid].less(xs[lo]) {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[last].less(xs[lo]) {
		xs[last], xs[lo] = xs[lo], xs[last]
	}
	if xs[mid].less(xs[last]) {
		xs[mid], xs[last] = xs[last], xs[mid]
	}
	pivot, p := xs[last], lo
	for k := lo; k < last; k++ {
		if xs[k].less(pivot) {
			xs[p], xs[k] = xs[k], xs[p]
			p++
		}
	}
	xs[p], xs[last] = xs[last], xs[p]
	return p
}

// ljfUnsched returns the unscheduled task with the largest TNew among the
// first k entries of uorder, ties to the smallest index — the first entry
// of the equal-TNew block ending at uorder[k-1], the winner of the
// reference's first-wins ascending-index scan — or -1 when k is 0.
func (vs *ViewSet) ljfUnsched(k int) int {
	if k == 0 {
		return -1
	}
	maxT := vs.TNew(vs.uorder[k-1])
	return vs.uorder[vs.uorderSearch(effIdx{eff: maxT, idx: -1})]
}

// dropRun invalidates the running-view buffer if this set filled it.
func (vs *ViewSet) dropRun() {
	if vs.run != nil && vs.run.owner == vs {
		vs.run.owner = nil
	}
}

// tnewKey is task i's (TNew, index) key, the order uorder keeps.
func (vs *ViewSet) tnewKey(i int) effIdx { return keyAt(vs.med, &vs.recs[i], i) }

// keyAt is task i's (TNew, index) key at median med.
func keyAt(med float64, r *TaskRec, i int) effIdx {
	return effIdx{eff: med * r.Work * r.Factor, idx: i}
}

// uorderSearch returns the number of unscheduled tasks whose (TNew, index)
// key sorts below k — the position k takes in uorder.
func (vs *ViewSet) uorderSearch(k effIdx) int {
	return sort.Search(len(vs.uorder), func(p int) bool {
		return !vs.tnewKey(vs.uorder[p]).less(k)
	})
}

// uorderPos returns unscheduled task i's position in uorder, located by
// its stored key. A miss means uorder diverged from the records — every
// later selection would be silently wrong — so it panics like the
// estimator's mirror.
func (vs *ViewSet) uorderPos(i int) int {
	p := vs.uorderSearch(vs.tnewKey(i))
	if p >= len(vs.uorder) || vs.uorder[p] != i {
		panic(fmt.Sprintf("spec: ViewSet order diverged: task %d (tnew %v) not at its key", i, vs.TNew(i)))
	}
	return p
}

// uorderRemove drops unscheduled task i from uorder. Its predecessor's
// pair mark stays when both pairs it joins were safe, and is recomputed
// otherwise.
func (vs *ViewSet) uorderRemove(i int) {
	p := vs.uorderPos(i)
	joined := p > 0 && p+1 < len(vs.uorder) && vs.recs[vs.uorder[p-1]].near == 0 && vs.recs[i].near == 0
	vs.unmark(i)
	vs.uorder = append(vs.uorder[:p], vs.uorder[p+1:]...)
	if p > 0 && !joined {
		vs.markPair(p - 1)
	}
}

// uorderInsert files unscheduled task i in uorder under its stored record
// and marks the two pairs it forms.
func (vs *ViewSet) uorderInsert(i int) {
	p := vs.uorderSearch(vs.tnewKey(i))
	vs.uorder = slices.Insert(vs.uorder, p, i)
	if p > 0 {
		vs.markPair(p - 1)
	}
	vs.markPair(p)
}

// sortUorder sorts uorder by (TNew, index) and marks every pair afresh.
func (vs *ViewSet) sortUorder() {
	slices.SortFunc(vs.uorder, func(a, b int) int {
		if vs.tnewKey(a).less(vs.tnewKey(b)) {
			return -1
		}
		return 1
	})
	for _, a := range vs.near {
		vs.recs[a].near = 0
	}
	vs.near = vs.near[:0]
	for p := range vs.uorder {
		vs.markPair(p)
	}
}

// nearULPs is how many representable steps apart two keys must be for
// their order to be fixed under every tame median: 16 steps exceed
// 16·2⁻⁵³ of the smaller key, twice the 8u that four roundings can close.
const nearULPs = 16

// tame reports whether x lies in [2⁻²⁵⁶, 2²⁵⁶]. A product of three tame
// values stays in the normal range, where each rounding lands within a
// relative u = 2⁻⁵³ of the exact result — the premise of the pair marks.
func tame(x float64) bool { return x >= 0x1p-256 && x <= 0x1p256 }

// markPair records whether the pair uorder[p], uorder[p+1] can swap under
// a median move; the last entry heads no pair.
func (vs *ViewSet) markPair(p int) {
	a := vs.uorder[p]
	if p+1 == len(vs.uorder) || vs.pairSafe(a, vs.uorder[p+1]) {
		vs.unmark(a)
	} else if vs.recs[a].near == 0 {
		vs.near = append(vs.near, a)
		vs.recs[a].near = int32(len(vs.near))
	}
}

// pairSafe reports whether neighbours a before b keep their order under
// every tame median: their operands and the current median are tame, and
// either the operands are identical (the keys stay equal, the index
// decides) or the keys are more than nearULPs steps apart.
func (vs *ViewSet) pairSafe(a, b int) bool {
	ra, rb := &vs.recs[a], &vs.recs[b]
	if !tame(vs.med) || !tame(ra.Work) || !tame(ra.Factor) || !tame(rb.Work) || !tame(rb.Factor) {
		return false
	}
	if ra.Work == rb.Work && ra.Factor == rb.Factor {
		return true
	}
	ka, kb := vs.med*ra.Work*ra.Factor, vs.med*rb.Work*rb.Factor
	return kb > ka && math.Float64bits(kb)-math.Float64bits(ka) > nearULPs
}

// unmark drops task a from the near-tie list.
func (vs *ViewSet) unmark(a int) {
	k := vs.recs[a].near
	if k == 0 {
		return
	}
	last := vs.near[len(vs.near)-1]
	vs.near[k-1] = last
	vs.recs[last].near = k
	vs.near = vs.near[:len(vs.near)-1]
	vs.recs[a].near = 0
}

func insertSortedInt(xs []int, v int) []int {
	p := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[p+1:], xs[p:])
	xs[p] = v
	return xs
}

func removeSortedInt(xs []int, v int, what string) []int {
	p := sort.SearchInts(xs, v)
	if p >= len(xs) || xs[p] != v {
		panic(fmt.Sprintf("spec: ViewSet %s list diverged: task %d not present", what, v))
	}
	return append(xs[:p], xs[p+1:]...)
}
