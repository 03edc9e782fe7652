package spec

import (
	"fmt"
	"slices"
	"sort"
)

// ViewSet is the incrementally maintained candidate state of one job's
// current phase — the structure that lets a launch attempt work from the
// job's running set instead of rebuilding and rescanning every incomplete
// task (the rebuild walk's O(tasks) per attempt).
//
// It holds one TaskView per task of the phase (dense, indexed by task
// index) plus three lists the policies select from:
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
// Running tasks sit in no ordered list: their selection keys (remaining
// time, effective duration) move with the clock, so every query over them
// works from the running list. For r running and u unscheduled tasks the
// deadline picks cost O(r) per attempt, and the error-bound earliest set
// (EarliestCandidates) and the median TNew cost O(r) expected plus
// O(log r · log u): a quickselect over the running keys whose probes
// binary-search uorder.
//
// The (TNew, index) order is cheap to keep alive because a job's TNew
// values only move together: in estimator mode TNew_i = median × work_i ×
// bias_i, so an estimator update rescales every key by the same positive
// factor and the order is (modulo float rounding, which ResortByTNew
// repairs) invariant; in oracle mode a task's key changes only when its
// predrawn duration factor is consumed by a launch, which already dirties
// the task.
//
// The scheduler owns maintenance: structural transitions (NoteLaunched /
// NoteIdle / Complete) are applied eagerly when the event happens, and
// view values are refreshed lazily — Update rewrites a dirtied task's view
// just before the next launch attempt. An unscheduled task is filed in
// uorder under its stored TNew, so between refreshes the stored key, not
// the task's current estimate, locates it. Query methods are only valid
// after the refresh, when every stored view is current; PickIncremental
// implementations must not mutate the set.
type ViewSet struct {
	views   []TaskView
	running []int
	unsched []int
	uorder  []int
	sealed  bool

	// Reusable query scratch: runKeys holds the running tasks' selection
	// keys (permuted by each selection), runIn backs EarliestCandidates'
	// returned slice, valid until the next call.
	runKeys []effIdx
	runIn   []int
}

// Reset clears the set for a fresh phase of n tasks, keeping capacity.
func (vs *ViewSet) Reset(n int) {
	if cap(vs.views) < n {
		vs.views = make([]TaskView, n)
	}
	vs.views = vs.views[:n]
	for i := range vs.views {
		vs.views[i] = TaskView{}
	}
	vs.running = vs.running[:0]
	vs.unsched = vs.unsched[:0]
	vs.uorder = vs.uorder[:0]
	vs.sealed = false
}

// Init records one task's initial view during the build phase. Views must
// be supplied in ascending task-index order (the membership lists inherit
// it); call Seal once every incomplete task is in.
func (vs *ViewSet) Init(v TaskView) {
	if vs.sealed {
		panic("spec: ViewSet.Init after Seal")
	}
	vs.views[v.Index] = v
	if v.Running {
		vs.running = append(vs.running, v.Index)
	} else {
		vs.unsched = append(vs.unsched, v.Index)
		vs.uorder = append(vs.uorder, v.Index)
	}
}

// Seal finishes the build: the (TNew, index) order is sorted once, after
// which all maintenance is incremental.
func (vs *ViewSet) Seal() {
	vs.sortUorder()
	vs.sealed = true
}

// Len returns the number of incomplete tasks in the set.
func (vs *ViewSet) Len() int { return len(vs.running) + len(vs.unsched) }

// At returns the current view of task i. Only meaningful for incomplete
// tasks of the phase.
func (vs *ViewSet) At(i int) TaskView { return vs.views[i] }

// Running returns the indices of tasks with at least one executing copy,
// ascending. Callers must not mutate or retain the slice across updates.
func (vs *ViewSet) Running() []int { return vs.running }

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
	keys := vs.runKeys[:0]
	for _, i := range vs.running {
		keys = append(keys, vs.tnewKey(i))
	}
	vs.runKeys = keys
	j, maxIn, minOut := vs.selectRunning(keys, h)
	// h-j unscheduled tasks are inside; uorder[h-j] is the smallest
	// unscheduled one outside.
	above := minOut.eff
	if u := h - j; u < len(vs.uorder) {
		if t := vs.views[vs.uorder[u]].TNew; j == len(keys) || t < above {
			above = t
		}
	}
	if n%2 == 1 {
		return above
	}
	below := maxIn.eff
	if u := h - j; u > 0 {
		if t := vs.views[vs.uorder[u-1]].TNew; j == 0 || t > below {
			below = t
		}
	}
	return (below + above) / 2
}

// Update rewrites task i's view after the scheduler refreshed it. If an
// unscheduled task's TNew key moved (an oracle redraw), its uorder entry
// is relocated. Structural membership is NOT touched here — NoteLaunched/
// NoteIdle/Complete handle transitions when they happen, so v.Running
// already says which list holds the task.
func (vs *ViewSet) Update(v TaskView) {
	if v.Running || vs.views[v.Index].TNew == v.TNew {
		vs.views[v.Index] = v
		return
	}
	// Remove under the old key before storing the new view: the search
	// compares through the stored views, so the entry must still carry the
	// key it is filed under while it is being located.
	vs.uorderRemove(v.Index)
	vs.views[v.Index] = v
	vs.uorderInsert(v.Index)
}

// NoteLaunched moves task i from the unscheduled lists to the running
// list — call when its first copy launches. The stored view stays stale
// until the next Update.
func (vs *ViewSet) NoteLaunched(i int) {
	vs.unsched = removeSortedInt(vs.unsched, i, "unsched")
	vs.uorderRemove(i)
	vs.running = insertSortedInt(vs.running, i)
}

// NoteIdle moves task i back to the unscheduled lists — call when
// preemption kills its last copy. It is filed in uorder under its stored
// TNew until the next Update relocates it.
func (vs *ViewSet) NoteIdle(i int) {
	vs.running = removeSortedInt(vs.running, i, "running")
	vs.unsched = insertSortedInt(vs.unsched, i)
	vs.uorderInsert(i)
}

// Complete removes task i from the set entirely.
func (vs *ViewSet) Complete(i int) {
	if p := sort.SearchInts(vs.running, i); p < len(vs.running) && vs.running[p] == i {
		vs.running = append(vs.running[:p], vs.running[p+1:]...)
		return
	}
	vs.unsched = removeSortedInt(vs.unsched, i, "unsched")
	vs.uorderRemove(i)
}

// SetTNewBulk rewrites task i's TNew without repairing the order — the
// estimator-update path, where every key rescales by the same factor and
// the caller finishes with one ResortByTNew instead of n relocations.
func (vs *ViewSet) SetTNewBulk(i int, tnew float64) {
	vs.views[i].TNew = tnew
}

// ResortByTNew revalidates uorder after a bulk TNew rewrite. Uniform
// rescaling preserves the order except for float-rounding flips, so this
// is an O(u) sortedness check with an O(u log u) repair that in practice
// never runs.
func (vs *ViewSet) ResortByTNew() {
	for k := 1; k < len(vs.uorder); k++ {
		if vs.tnewKey(vs.uorder[k]).less(vs.tnewKey(vs.uorder[k-1])) {
			vs.sortUorder()
			return
		}
	}
}

// AppendCompact appends the views of every incomplete task in ascending
// index order — the exact slice a from-scratch rebuild would produce,
// which the differential tests compare against.
func (vs *ViewSet) AppendCompact(dst []TaskView) []TaskView {
	ri, ui := 0, 0
	for ri < len(vs.running) || ui < len(vs.unsched) {
		switch {
		case ri >= len(vs.running):
			dst = append(dst, vs.views[vs.unsched[ui]])
			ui++
		case ui >= len(vs.unsched):
			dst = append(dst, vs.views[vs.running[ri]])
			ri++
		case vs.running[ri] < vs.unsched[ui]:
			dst = append(dst, vs.views[vs.running[ri]])
			ri++
		default:
			dst = append(dst, vs.views[vs.unsched[ui]])
			ui++
		}
	}
	return dst
}

// EarliestCandidates identifies, among the `need` incomplete tasks with
// the smallest (effDuration, index) — exactly the reference earliestSet's
// quickselect order — the running members and the unscheduled fresh-launch
// candidate:
//
//   - runIn holds the running tasks inside the set, ascending by index
//     (the reference selection's scan order);
//   - fresh is the unscheduled member with the largest TNew, ties broken
//     to the smallest index (LJF's pick inside the set), or -1 when the
//     set contains no unscheduled task.
//
// need >= Len() degenerates to the whole incomplete set, and runIn is then
// the live running list itself; otherwise it aliases ViewSet scratch.
// Either way it is valid until the next call or update. Cost is O(r)
// expected plus O(log r · log u) for r running and u unscheduled tasks
// (see selectRunning), where the reference quickselects every incomplete
// task.
func (vs *ViewSet) EarliestCandidates(need int) ([]int, int) {
	if need <= 0 {
		return vs.runIn[:0], -1
	}
	if need >= vs.Len() {
		return vs.running, vs.ljfUnsched(len(vs.uorder))
	}
	// An unscheduled task's effDuration is its TNew, so uorder is already
	// in selection-key order and only the running keys need selecting.
	keys := vs.runKeys[:0]
	for _, i := range vs.running {
		keys = append(keys, effIdx{eff: effDuration(vs.views[i]), idx: i})
	}
	vs.runKeys = keys
	j, _, minOut := vs.selectRunning(keys, need)
	// The members are the running keys below minOut; filtering the running
	// list keeps runIn ascending by index whatever order the selection left
	// the keys in.
	runIn := vs.runIn[:0]
	for _, i := range vs.running {
		if j == len(keys) || (effIdx{eff: effDuration(vs.views[i]), idx: i}).less(minOut) {
			runIn = append(runIn, i)
		}
	}
	vs.runIn = runIn
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
	maxT := vs.views[vs.uorder[k-1]].TNew
	return vs.uorder[vs.uorderSearch(effIdx{eff: maxT, idx: -1})]
}

// tnewKey is task i's (TNew, index) key, the order uorder keeps.
func (vs *ViewSet) tnewKey(i int) effIdx { return effIdx{eff: vs.views[i].TNew, idx: i} }

// uorderSearch returns the number of unscheduled tasks whose (TNew, index)
// key sorts below k — the position k takes in uorder.
func (vs *ViewSet) uorderSearch(k effIdx) int {
	return sort.Search(len(vs.uorder), func(p int) bool {
		return !vs.tnewKey(vs.uorder[p]).less(k)
	})
}

// uorderRemove drops unscheduled task i from uorder, located by its stored
// TNew. A miss means uorder diverged from the views — every later
// selection would be silently wrong — so it panics like the estimator's
// mirror.
func (vs *ViewSet) uorderRemove(i int) {
	p := vs.uorderSearch(vs.tnewKey(i))
	if p >= len(vs.uorder) || vs.uorder[p] != i {
		panic(fmt.Sprintf("spec: ViewSet order diverged: task %d (tnew %v) not at its key", i, vs.views[i].TNew))
	}
	vs.uorder = append(vs.uorder[:p], vs.uorder[p+1:]...)
}

// uorderInsert files unscheduled task i in uorder under its stored TNew.
func (vs *ViewSet) uorderInsert(i int) {
	vs.uorder = slices.Insert(vs.uorder, vs.uorderSearch(vs.tnewKey(i)), i)
}

func (vs *ViewSet) sortUorder() {
	slices.SortFunc(vs.uorder, func(a, b int) int {
		if vs.tnewKey(a).less(vs.tnewKey(b)) {
			return -1
		}
		return 1
	})
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
