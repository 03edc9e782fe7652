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
//     ascending by index — the scan order the reference Pick sees, so the
//     error-bound picks' first-wins tie-breaks match exactly;
//   - unsched: indices of incomplete tasks with no copy, ascending by
//     index — FIFO launch order for the approximation-oblivious baselines;
//   - uorder: the same unscheduled tasks sorted by (TNew, index) — SJF's
//     pick is its head, and the error-bound earliest set's unscheduled
//     members are a prefix of it.
//
// Both unscheduled lists are windows (see window): a removal or an
// insertion shifts the shorter side of its position, so launching from
// the head is O(1).
//
// GS's and RAS's picks evaluate what each decision needs straight from
// the running records, and read only the hot set (hot.go): a record a pass
// finds unable to change the pick leaves the later passes under its own
// certificate until its task is re-filed or removed, its wake passes, the
// median falls below its floor, or the clock goes backwards or a pick of
// the other kind comes. The hot records are in no order, so ties go to the
// lowest index explicitly. A deadline pick tests a task's t_new against
// the remaining time, the copy cap and the best so far before it divides
// for progress, and certifies the records it finds no candidate. An
// error-bound pick forms each hot record's selection key, places it
// against the previous selection's boundary (selHint), keeps only the keys
// near that boundary and the rare speculation candidates, and certifies
// the records far inside the earliest set as quiet members and those far
// outside it as quiet non-members; one comparison against the selection's
// boundary proves every quiet record still on its side. For r running, h
// hot and u unscheduled tasks a pick costs O(h) plus O(log r) per record
// that returns by its wake, and a sweep of the quiet records when the
// median falls below their largest floor or an error-bound pick's
// boundary check fails; the earliest set's selection costs O(h) expected
// plus O(log h · log u), and the median TNew O(r) expected plus
// O(log r · log u): a quickselect over the running keys whose probes
// binary-search uorder, warm-started from the previous boundary so it
// usually touches few keys after the pass.
//
// One pick's result outlives its attempt: the shared RunBuf keeps the last
// pass's hot keys, candidates, split or best candidate (pickMemo),
// stamped with the set, clock, median and pick. The fair scheduler offers
// a job far below its share several slots at one instant, and between
// those attempts only the task just launched changes; Update notes it, and
// the retry evaluates that one record instead of every running one. Any
// other change — a second task, a completion, a running task back to
// unscheduled, a new clock or median, a deadline pick's kept best getting
// worse — sends the next pick back to the full pass. MedianTNew keeps its value until a completion, a work or
// factor change or a median move. LATE, Mantri and the differential tests
// read whole views through RunningViews, which evaluates them afresh on
// every call.
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
// implementations must not mutate the set beyond its scratch, hints, pick
// memo and hot set, none of which changes what a query returns.
type ViewSet struct {
	recs    []TaskRec
	running []int
	unsched window
	uorder  window
	// near lists the uorder tasks whose pair with their uorder successor is
	// near-tied (TaskRec.near points back into it).
	near []int
	// untame counts the unscheduled tasks whose t_new operands are untame
	// (see tame), which decline certificates cannot bound.
	untame int
	sealed bool

	// The hot set (hot.go): while hotOn, hot holds every running task —
	// first the quiet records' certificates, a min-heap by wake time of
	// length quiet, then in no order the hot records a pick reads. Every
	// quiet certificate holds from clock qNow on and under remaining times
	// up to qRem, made by an error-bound pick if qErr; maxFloor bounds
	// their floors, exactly unless floorStale. Under an error-bound pick
	// qIn of them are members, maxU bounds the members' t_rem bounds and
	// minTheta the non-members' key floors from below. A phase's first pick
	// builds the set.
	hot                                  []hotRec
	quiet, qIn                           int
	qNow, qRem, maxFloor, maxU, minTheta float64
	floorStale, hotOn, qErr              bool

	// The evaluation inputs: the clock, the t_new median and the mode.
	now, med    float64
	groundTruth bool

	// earliest and median are the boundaries of the previous error-bound
	// earliest-set and MedianTNew selections, which warm-start the next
	// ones.
	earliest, median selHint

	// medTNew is MedianTNew's value while medKnown holds: no completion,
	// work or factor change or median move since it was computed.
	medTNew  float64
	medKnown bool

	// run holds the query scratch, shared by the scheduler's sets.
	run *RunBuf
}

// TaskRec is what a ViewSet stores for one task: the inputs of its view
// that neither the clock nor the estimator moves. Callers fill the
// exported fields; the set maintains the rest, near, which places the task
// in the set's near-tie list while it is unscheduled and in its hot set
// while it runs. The record is 64 bytes.
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
	// near is, for an unscheduled task, one plus its position in
	// ViewSet.near while the uorder pair it heads is near-tied, else 0; for
	// a running task, one plus its position in ViewSet.hot, quiet below
	// ViewSet.quiet, and 0 while the hot set is off.
	near int32
}

// RunBuf is the scratch a ViewSet's queries work in, and the memo of the
// last GS or RAS pick. ViewSets whose queries never overlap — every job of
// one simulator — share one, so its capacity is paid once. A query
// overwrites the scratch; the memo, stamped with the set it was made on,
// serves only that set's next pick of the same kind at the same clock and
// median, and any other pick replaces it.
type RunBuf struct {
	// views holds RunningViews' result, re-evaluated on every call.
	views []TaskView
	// runKeys holds the last error-bound pick's hot selection keys at the
	// records' places in the hot set and cands its hot speculation
	// candidates, both kept for the memo; selKeys holds the keys a
	// selection still has to partition and medKeys MedianTNew's running
	// keys.
	runKeys []effIdx
	selKeys []effIdx
	cands   []errCand
	medKeys []effIdx
	// tmpKeys holds a decline certificate's running t_rem bounds, or the
	// (TNew, index) keys sortUorder sorts.
	tmpKeys []effIdx
	memo    pickMemo
	// passes counts full pick passes: picks the memo could not serve.
	passes uint64
	// scanned counts the records the full deadline passes read, the hot
	// ones, and scanRunning the running records they had; errScanned and
	// errRunning count the same for full error-bound passes, the records
	// a failed boundary check returned included.
	scanned, scanRunning, errScanned, errRunning uint64
}

// Passes returns how many GS or RAS picks made a full pass: the picks the
// memo could not serve.
func (b *RunBuf) Passes() uint64 { return b.passes }

// DeadlineScan returns how many records the full deadline passes read —
// the hot records — and how many running records those passes had.
func (b *RunBuf) DeadlineScan() (scanned, running uint64) { return b.scanned, b.scanRunning }

// ErrorScan returns how many records the full error-bound passes read —
// the hot records and those a failed boundary check returned — and how
// many running records those passes had.
func (b *RunBuf) ErrorScan() (scanned, running uint64) { return b.errScanned, b.errRunning }

// pickKind names the pick a memo answers.
type pickKind uint8

const (
	pickGSError pickKind = 1 + iota
	pickRASError
	pickGSDeadline
	pickRASDeadline
)

// pickMemo is the last GS or RAS pick a RunBuf served, kept so that a
// retry at the same instant re-evaluates only the task that changed since.
type pickMemo struct {
	// vs is the set the pick ran on; nil when nothing is kept.
	vs *ViewSet
	// The stamp: the clock, the median and the pick's argument (the error
	// bound's need, the deadline's remaining time).
	now, med, arg float64
	// changed is the one task Update re-filed on vs since the pick, or -1;
	// wasRunning says it was running at the pick.
	changed int
	// quiet is vs's count of quiet records the pick left.
	quiet int
	// Error bound: the split the pick left in vs.earliest, how many hot
	// keys it has below (j) and its block extremes — the largest member
	// and the smallest non-member, sentinels for an empty side, or for the
	// largest member a key that bounds its block as tightly (see
	// retryEarliest). The keys and candidates stay in runKeys and cands.
	j               int
	split           selHint
	lowMax, highMin effIdx
	// Deadline bound: the best running candidate, or -1, and its score —
	// GS's TNew, RAS's saving.
	best       int
	score      float64
	kind       pickKind
	wasRunning bool
}

// fits reports whether the memo answers a pick of kind with argument arg
// on vs at its current clock and median.
func (m *pickMemo) fits(vs *ViewSet, kind pickKind, arg float64) bool {
	return m.vs == vs && m.kind == kind && m.now == vs.now && m.med == vs.med && m.arg == arg
}

// stamp starts a memo for a full pass of kind on vs, and counts the pass.
func (m *pickMemo) stamp(vs *ViewSet, kind pickKind, arg float64) {
	m.vs, m.kind, m.now, m.med, m.arg, m.changed = vs, kind, vs.now, vs.med, arg, -1
	vs.run.passes++
}

// keepSplit records the split a selection over n hot keys left in h:
// j members, the largest maxIn, and the smallest non-member minOut.
func (m *pickMemo) keepSplit(h selHint, j, n int, maxIn, minOut effIdx) {
	m.j, m.split, m.lowMax, m.highMin = j, h, lowestKey, highestKey
	if j > 0 {
		m.lowMax = maxIn
	}
	if j < n {
		m.highMin = minOut
	}
}

// note records that Update re-filed task i, running before if was and
// after if is. The memo serves one change of a task that stays filed where
// it was or starts running; a second change, or a running task going back
// to unscheduled, drops it.
func (m *pickMemo) note(i int, was, is bool) {
	if m.changed >= 0 || (was && !is) {
		m.vs = nil
		return
	}
	m.changed, m.wasRunning = i, was
}

// dropMemo forgets the memo if it was made on vs.
func (vs *ViewSet) dropMemo() {
	if vs.run.memo.vs == vs {
		vs.run.memo.vs = nil
	}
}

// Eval says how a ViewSet turns records into views.
type Eval struct {
	// GroundTruth selects the oracle's exact views: TRem is the true
	// remaining time, every running task is speculable, and the t_new
	// median is 1.
	GroundTruth bool
	// Buf is the query scratch to share; nil gives the set a fresh one.
	Buf *RunBuf
}

// Reset clears the set for a fresh phase of n tasks, keeping capacity.
func (vs *ViewSet) Reset(n int, e Eval) {
	if cap(vs.recs) < n {
		vs.recs = make([]TaskRec, n)
	}
	vs.recs = vs.recs[:n]
	clear(vs.recs)
	vs.running = vs.running[:0]
	vs.unsched.reset()
	vs.uorder.reset()
	vs.near = vs.near[:0]
	vs.untame = 0
	vs.sealed = false
	vs.hot, vs.hotOn = vs.hot[:0], false
	vs.wakeAll()
	vs.earliest, vs.median = selHint{}, selHint{}
	vs.medKnown = false
	vs.groundTruth, vs.run = e.GroundTruth, e.Buf
	if vs.run == nil {
		vs.run = new(RunBuf)
	}
	vs.dropMemo()
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
		vs.unsched.push(i)
		vs.uorder.push(i)
		vs.countUntame(&r, 1)
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

// Begin starts a launch attempt at time now: every view read afterwards is
// evaluated at now.
func (vs *ViewSet) Begin(now float64) { vs.now = now }

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
	vs.medKnown = false
	if !tame(vs.med) || !tame(med) {
		vs.med = med
		vs.sortUorder()
		return max(vs.uorder.len()-1, 0)
	}
	broken := false
	u := vs.uorder.list()
	for _, a := range vs.near {
		b := u[vs.uorderPos(a)+1]
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
func (vs *ViewSet) Len() int { return len(vs.running) + vs.unsched.len() }

// At evaluates the current view of task i. Only meaningful for incomplete
// tasks of the phase.
func (vs *ViewSet) At(i int) TaskView {
	var v TaskView
	vs.eval(&v, i)
	return v
}

// eval writes task i's current view to v.
func (vs *ViewSet) eval(v *TaskView, i int) {
	r := &vs.recs[i]
	*v = TaskView{Index: i, TNew: vs.TNew(i)}
	if r.Copies == 0 {
		return
	}
	v.Running = true
	v.Copies = int(r.Copies)
	v.Elapsed = vs.now - r.FirstStart
	v.Progress = progress(vs.now, r.Start, r.Duration)
	v.TRem, v.Speculable = r.tremAt(vs.now, vs.groundTruth)
}

// tremAt returns running record r's TRem and Speculable at time now — the
// view's expressions, evaluated without the rest of the view. Ground truth
// knows the exact remaining time and needs no progress. It stays within
// the compiler's inlining budget: the picks call it once per running task.
func (r *TaskRec) tremAt(now float64, groundTruth bool) (trem float64, speculable bool) {
	trem = max(r.End-now, 0) // the true remaining time, never negative
	if groundTruth {
		return trem, true
	}
	p := progress(now, r.Start, r.Duration)
	return TRemEstimate(trem, r.TRemBias, p), p >= MinSpecProgress
}

// tremBound bounds the t_rem that running record r shows at any time from
// now on at which its progress is at least p (p at least the progress
// now): what a decline certificate compares against t_new. It returns +Inf
// for a copy that has not started and for values that are not numbers.
//
// With x the true remaining time and D the duration, t_rem is
// x(1 + (b−1)x/D) in reals (b the TRemBias). Over a remaining fraction
// x/D ≤ 1 − p that parabola peaks at x/D = 1/(2(1−b)) when b < 1, a peak
// that lies ahead for b < 0.5 (for b ≥ 0.5 t_rem never rises as the clock
// advances); progress clamped at 0.999 only shrinks x further. The float
// expressions differ from the reals by the rounding of the clock
// arithmetic: x = End − now against D(1 − progress), off by a few ulps of
// End, plus any gap between End and Start + Duration. The bound adds that
// slack, times the largest factor t_rem applies to x; relative rounding is
// left to the callers' certEps.
func (r *TaskRec) tremBound(now, p float64) float64 {
	d, b := r.Duration, r.TRemBias
	if !(d > 0) || math.IsInf(d, 1) {
		// The progress stays 0, so t_rem = x·b moves with x towards 0.
		return notNaN(max(TRemEstimate(max(r.End-now, 0), b, 0), 0))
	}
	if now < r.Start {
		return math.Inf(1)
	}
	x := 1 - p
	if b < 1 {
		x = min(x, 0.5/(1-b))
	}
	gap := math.Abs(r.End - (r.Start + d))
	slack := (gap + 0x1p-46*(d+math.Abs(r.End))) * (2 + math.Abs(b))
	return notNaN(d*x*(1+(b-1)*x) + slack)
}

// notNaN maps NaN to +Inf, the bound that certifies nothing.
func notNaN(x float64) float64 {
	if math.IsNaN(x) {
		return math.Inf(1)
	}
	return x
}

// specFrom returns the instant running record r turns speculable: the
// first float64 t at which its progress reaches MinSpecProgress. The search
// steps through neighbouring float64s from the product's estimate and
// tests progress itself, which never decreases as the clock advances, so
// the instant is exact. The duration must be positive and finite.
func (r *TaskRec) specFrom() float64 {
	t := r.Start + MinSpecProgress*r.Duration
	for progress(t, r.Start, r.Duration) < MinSpecProgress {
		t = math.Nextafter(t, math.Inf(1))
	}
	for {
		prev := math.Nextafter(t, math.Inf(-1))
		if progress(prev, r.Start, r.Duration) < MinSpecProgress {
			return t
		}
		t = prev
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
func (vs *ViewSet) TNew(i int) float64 { return vs.recs[i].tnewAt(vs.med) }

// tnewAt is the record's TNew at t_new median med, multiplied left to
// right as every key and view computes it.
func (r *TaskRec) tnewAt(med float64) float64 { return med * r.Work * r.Factor }

// RunningViews evaluates the views of the tasks with at least one
// executing copy, ascending by index, at the set's clock and median. Every
// call evaluates them afresh into the shared scratch, so the slice is
// valid until the next query on any set sharing it; callers must not
// mutate or retain it.
func (vs *ViewSet) RunningViews() []TaskView {
	b := vs.run
	b.views = slices.Grow(b.views[:0], len(vs.running))[:len(vs.running)]
	for k, i := range vs.running {
		vs.eval(&b.views[k], i)
	}
	return b.views
}

// Running returns the tasks the stored records file as running, ascending
// by index. The slice is the set's own; callers must not mutate or retain
// it.
func (vs *ViewSet) Running() []int { return vs.running }

// FirstUnsched returns the lowest-index unscheduled task — the FIFO
// launch the approximation-oblivious baselines start from.
func (vs *ViewSet) FirstUnsched() (int, bool) {
	if vs.unsched.len() == 0 {
		return 0, false
	}
	return vs.unsched.list()[0], true
}

// MinTNewUnsched returns the unscheduled task with the smallest
// (TNew, index) — SJF's pick, the head of uorder.
func (vs *ViewSet) MinTNewUnsched() (int, bool) {
	if vs.uorder.len() == 0 {
		return 0, false
	}
	return vs.uorder.list()[0], true
}

// MedianTNew returns the median TNew across every incomplete task, with
// the reference implementation's exact averaging for even counts — the
// quantity GRASS's static switching rule and the oracle's exact two-wave
// test need. Zero when the set is empty. It runs the earliest-set
// selection on TNew keys: the h = n/2 smallest keys split off, the median
// is the smallest key outside them, averaged for even n with the largest
// key inside. A launch leaves every TNew as it was, so the value is kept
// until a task completes, a record's work or factor changes or the median
// moves.
func (vs *ViewSet) MedianTNew() float64 {
	if !vs.medKnown {
		vs.medTNew, vs.medKnown = vs.medianTNew(), true
	}
	return vs.medTNew
}

// medianTNew computes MedianTNew's value.
func (vs *ViewSet) medianTNew() float64 {
	n := vs.Len()
	if n == 0 {
		return 0
	}
	h := n / 2
	b := vs.run
	keys := b.medKeys[:0]
	for _, i := range vs.running {
		keys = append(keys, vs.tnewKey(i))
	}
	b.medKeys = keys
	j, maxIn, minOut := vs.selectRunning(keys, h, &vs.median)
	// h-j unscheduled tasks are inside; uorder[h-j] is the smallest
	// unscheduled one outside.
	u := vs.uorder.list()
	above := minOut.eff
	if k := h - j; k < len(u) {
		if t := vs.TNew(u[k]); j == len(keys) || t < above {
			above = t
		}
	}
	if n%2 == 1 {
		return above
	}
	below := maxIn.eff
	if k := h - j; k > 0 {
		if t := vs.TNew(u[k-1]); j == 0 || t > below {
			below = t
		}
	}
	return (below + above) / 2
}

// Update files task i under its re-derived record r. A task whose copy
// count crossed zero moves between the running and unscheduled lists, and
// an unscheduled task whose key operands changed (an oracle redraw) moves
// in uorder; either way it is first unfiled under the stored record, the
// one it is filed under. The pick memo of this set notes the change.
func (vs *ViewSet) Update(i int, r TaskRec) {
	old := &vs.recs[i]
	if vs.run.memo.vs == vs {
		vs.run.memo.note(i, old.Copies > 0, r.Copies > 0)
	}
	rekeyed := old.Work != r.Work || old.Factor != r.Factor
	if rekeyed {
		vs.medKnown = false
	}
	moved := (old.Copies > 0) != (r.Copies > 0) || (r.Copies == 0 && rekeyed)
	if !moved {
		r.near = old.near
		*old = r
		if r.Copies > 0 {
			vs.rehot(i)
		}
		return
	}
	vs.unfile(i)
	r.near = 0
	*old = r
	if r.Copies > 0 {
		vs.running = slices.Insert(vs.running, sort.SearchInts(vs.running, i), i)
		if vs.hotOn {
			vs.addHot(i)
		}
		return
	}
	vs.unsched.insert(sort.SearchInts(vs.unsched.list(), i), i)
	vs.uorderInsert(i)
	vs.countUntame(old, 1)
}

// Remove drops completed task i from the set.
func (vs *ViewSet) Remove(i int) {
	vs.dropMemo()
	vs.medKnown = false
	vs.unfile(i)
}

// unfile drops task i from the lists its stored record filed it in. The
// uorder search compares through the stored records, so the entry must
// still carry the key it is filed under while it is being located.
func (vs *ViewSet) unfile(i int) {
	if vs.recs[i].Copies > 0 {
		vs.dropHot(i)
		p := sortedPos(vs.running, i, "running")
		vs.running = slices.Delete(vs.running, p, p+1)
		return
	}
	vs.unsched.remove(sortedPos(vs.unsched.list(), i, "unsched"))
	vs.uorderRemove(i)
	vs.countUntame(&vs.recs[i], -1)
}

// countUntame adds d to the untame count when unscheduled record r has an
// untame t_new operand.
func (vs *ViewSet) countUntame(r *TaskRec, d int) {
	if !r.tameKey() {
		vs.untame += d
	}
}

// AppendCompact appends the views of every incomplete task in ascending
// index order — the exact slice a from-scratch rebuild would produce,
// which the differential tests compare against. Running views come from
// RunningViews, the evaluation LATE and Mantri read.
func (vs *ViewSet) AppendCompact(dst []TaskView) []TaskView {
	rv := vs.RunningViews()
	un := vs.unsched.list()
	ri, ui := 0, 0
	for ri < len(rv) || ui < len(un) {
		if ui == len(un) || (ri < len(rv) && vs.running[ri] < un[ui]) {
			dst = append(dst, rv[ri])
			ri++
		} else {
			dst = append(dst, vs.At(un[ui]))
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
	u := vs.uorder.list()
	for k := 1; k < len(u); k++ {
		if a, b := u[k-1], u[k]; !vs.tnewKey(a).less(vs.tnewKey(b)) {
			return fmt.Errorf("uorder[%d] task %d (tnew %v) does not sort before task %d (tnew %v) at median %v",
				k-1, a, vs.TNew(a), b, vs.TNew(b), vs.med)
		}
	}
	for k, a := range vs.near {
		if int(vs.recs[a].near) != k+1 {
			return fmt.Errorf("near[%d] task %d points back to %d", k, a, vs.recs[a].near-1)
		}
		if p := vs.uorderSearch(vs.tnewKey(a)); p+1 >= len(u) || u[p] != a {
			return fmt.Errorf("near[%d] task %d heads no uorder pair", k, a)
		}
	}
	return vs.checkHot()
}

// checkHot verifies that the hot set holds every running task while it is
// on, each pointing back through its record, the quiet ones in heap order
// by wake with floors and bounds within the kept bounds and members
// counted, only under an error-bound pick's certificates, and that no
// running record claims a place while it is off.
func (vs *ViewSet) checkHot() error {
	if vs.hotOn && len(vs.hot) != len(vs.running) {
		return fmt.Errorf("hot set holds %d tasks, for %d running", len(vs.hot), len(vs.running))
	}
	members := 0
	for k, h := range vs.hot[:vs.quiet] {
		switch {
		case h.member && (!vs.qErr || h.bound > vs.maxU):
			return fmt.Errorf("quiet member %d has bound %v, kept bound %v, error bound %v", k, h.bound, vs.maxU, vs.qErr)
		case !h.member && vs.qErr && h.bound < vs.minTheta:
			return fmt.Errorf("quiet non-member %d has bound %v below the kept bound %v", k, h.bound, vs.minTheta)
		case h.member:
			members++
		}
	}
	if members != vs.qIn {
		return fmt.Errorf("%d quiet members counted, %d found", vs.qIn, members)
	}
	for k, h := range vs.hot {
		if r := &vs.recs[h.task]; r.Copies == 0 || int(r.near) != k+1 {
			return fmt.Errorf("hot[%d] task %d (copies %d) points back to %d", k, h.task, r.Copies, r.near)
		}
		if k >= vs.quiet {
			continue
		}
		if p := (k - 1) / 2; k > 0 && h.wake < vs.hot[p].wake {
			return fmt.Errorf("quiet record %d wakes at %v, before its heap parent at %v", k, h.wake, vs.hot[p].wake)
		}
		if h.floor > vs.maxFloor {
			return fmt.Errorf("quiet record %d has floor %v above the kept bound %v", k, h.floor, vs.maxFloor)
		}
	}
	if !vs.hotOn {
		for _, i := range vs.running {
			if vs.recs[i].near != 0 {
				return fmt.Errorf("running task %d claims place %d with the hot set off", i, vs.recs[i].near)
			}
		}
	}
	return nil
}

// errCand is a running member candidate of an error-bound pick: its
// selection key and its score.
type errCand struct {
	key   effIdx
	score float64
}

// pickEarliest is GS's and RAS's error-bound pick in one pass over the
// hot records. Among the `need` incomplete tasks with the smallest
// (effDuration, index) keys — exactly the reference earliestSet — it
// finds:
//
//   - best, the running member that is a speculation candidate with the
//     largest score, the lowest index among equal scores, or -1. GS's
//     candidates are the tasks a fresh copy would finish sooner (TNew <
//     TRem), scored by TRem; with saving set, RAS's are the tasks whose
//     copy saves resources (Saving > 0), scored by the saving. Both need a
//     speculable task under the copy cap.
//   - fresh, the unscheduled member with the largest TNew, ties broken to
//     the smallest index (LJF's pick inside the set), or -1 when the set
//     contains no unscheduled task.
//
// The quiet members are members and no candidates, and the quiet
// non-members are no members (hot.go), so the hot records and the
// unscheduled tasks decide both. A retry that the memo serves
// (retryEarliest) re-evaluates only the task changed since the last pick;
// any other pick makes the full pass (passEarliest).
func (vs *ViewSet) pickEarliest(need int, saving bool) (best int, score float64, fresh int) {
	if need <= 0 {
		vs.wakeAll() // no task is a member
		return -1, 0, -1
	}
	vs.hotFor(math.Inf(1), true)
	kind := pickGSError
	if saving {
		kind = pickRASError
	}
	all := need >= vs.Len()
	j, minOut, ok := vs.retryEarliest(kind, need, all)
	if !ok {
		j, minOut = vs.passEarliest(kind, need, all)
	}
	if all {
		fresh = vs.ljfUnsched(vs.uorder.len())
	} else {
		fresh = vs.ljfUnsched(need - vs.qIn - j)
	}
	// The hot members are the keys below minOut, all of them when no hot
	// key is left out.
	n := len(vs.hot) - vs.quiet
	best = -1
	for _, c := range vs.run.cands {
		if (j == n || c.key.less(minOut)) && (best == -1 || c.score > score || (c.score == score && c.key.idx < best)) {
			best, score = c.key.idx, c.score
		}
	}
	return best, score, fresh
}

// passEarliest is pickEarliest's full pass: it evaluates each hot record
// with the view's expressions, forms its key, keeps it in runKeys at the
// record's place and places it against the previous split (vs.earliest) —
// it counts the keys below the hint, keeps the extremes of the outer
// blocks and collects only the keys between the hint keys — and it
// collects the speculation candidates. settleEarliest then decides the
// split and holds the quiet records to it, and certifyEarliest lets the
// records far from it go quiet. When need covers every task (all), no
// selection runs, and the quiet non-members return first; when fewer tasks
// are needed than there are quiet members, those do. It returns the
// number of hot members j and the smallest hot non-member, and stamps the
// memo.
func (vs *ViewSet) passEarliest(kind pickKind, need int, all bool) (j int, minOut effIdx) {
	switch {
	case vs.quiet == 0:
	case all && vs.quiet > vs.qIn:
		vs.sweepQuiet(func(h *hotRec) bool { return h.member })
	case need < vs.qIn:
		vs.sweepQuiet(func(h *hotRec) bool { return !h.member })
	}
	h := &vs.earliest
	in, out := lowestKey, highestKey
	if h.set {
		in, out = h.in, h.out
	}
	b := vs.run
	keys := slices.Grow(b.runKeys[:0], len(vs.hot))[:len(vs.hot)]
	sel, cands := b.selKeys[:0], b.cands[:0]
	p := 0
	e := splitExt{lowMax: lowestKey, highMin: highestKey}
	saving := kind == pickRASError
	now, med, gt := vs.now, vs.med, vs.groundTruth
	for k := vs.quiet; k < len(vs.hot); k++ {
		// errKey's evaluation, written out: the loop runs for every hot
		// record, and a call per record made the fresh-clock pick about a
		// third slower.
		i := int(vs.hot[k].task)
		r := &vs.recs[i]
		tnew := r.tnewAt(med)
		trem, speculable := r.tremAt(now, gt)
		key := effIdx{eff: trem, idx: i}
		if speculable && r.Copies < MaxCopies {
			if !(trem < tnew) {
				key.eff = tnew
			}
			if saving {
				if s := savingOf(float64(r.Copies), trem, tnew); s > 0 {
					cands = append(cands, errCand{key: key, score: s})
				}
			} else if !(tnew >= trem) {
				cands = append(cands, errCand{key: key, score: trem})
			}
		}
		keys[k] = key
		if all {
			continue
		}
		switch {
		case key.less(in):
			p++
			if e.lowMax.less(key) {
				e.lowMax = key
			}
		case key.less(out):
			sel = append(sel, key)
		case key.less(e.highMin):
			e.highMin = key
		}
	}
	b.runKeys, b.selKeys, b.cands = keys, sel, cands
	b.errScanned += uint64(len(vs.hot) - vs.quiet)
	b.errRunning += uint64(len(vs.running))
	m := &b.memo
	m.stamp(vs, kind, float64(need))
	if all {
		vs.certifyEarliest(keys, highestKey, highestKey)
		m.quiet = vs.quiet
		return len(vs.hot) - vs.quiet, highestKey
	}
	// The middle block's extremes; with no key between the hint keys the
	// nearest keys beyond each lie in the outer blocks.
	e.midMin, e.midMax = e.highMin, e.lowMax
	for _, k := range sel {
		if k.less(e.midMin) {
			e.midMin = k
		}
		if e.midMax.less(k) {
			e.midMax = k
		}
	}
	j, maxIn, minOut, bound, back := vs.settleEarliest(keys, need, p, p+len(sel), e, saving)
	b.errScanned += uint64(back)
	members, minOut := vs.certifyEarliest(keys, bound, minOut)
	j -= members
	m.keepSplit(*h, j, len(vs.hot)-vs.quiet, maxIn, minOut)
	m.quiet = vs.quiet
	return j, minOut
}

// settleEarliest finishes an error-bound selection from a placement of
// the hot records' keys (keys at their places in the hot set) against the
// hint vs.earliest: p keys below h.in, q below h.out, e the blocks'
// extremes and the keys between the hint keys collected in selKeys. It
// selects the need − q_in smallest keys of the hot and unscheduled tasks
// (settle) and holds the quiet records to that selection's smallest
// non-member b (boundaryHolds). While the check fails, the suspect quiet
// records return (returnSuspects), their keys are formed at their places
// and their candidates collected, and the selection runs again from the
// split it left: exactly j keys below h.in and none in [h.in, h.out). It
// returns settle's results, b and how many records returned.
func (vs *ViewSet) settleEarliest(keys []effIdx, need, p, q int, e splitExt, saving bool) (j int, maxIn, minOut, b effIdx, back int) {
	h := &vs.earliest
	for {
		n := len(vs.hot) - vs.quiet
		j, maxIn, minOut = vs.settle(keys[vs.quiet:len(vs.hot)], need-vs.qIn, h, p, q, e, true)
		b = vs.boundary(need-vs.qIn, j, n, minOut)
		q0 := vs.quiet
		if q0 == 0 || vs.boundaryHolds(b.eff) {
			return j, maxIn, minOut, b, back
		}
		if vs.returnSuspects(b.eff); vs.quiet == q0 {
			return j, maxIn, minOut, b, back // the kept bounds were loose
		}
		back += q0 - vs.quiet
		p, q = j, j
		e = splitExt{lowMax: lowestKey, highMin: highestKey}
		if j > 0 {
			e.lowMax = maxIn
		}
		if j < n {
			e.highMin = minOut
		}
		sel, cands := vs.run.selKeys[:0], vs.run.cands
		for k := vs.quiet; k < q0; k++ {
			key, score, cand := vs.errKey(int(vs.hot[k].task), saving)
			if cand {
				cands = append(cands, errCand{key: key, score: score})
			}
			keys[k] = key
			switch {
			case key.less(h.in):
				p, q = p+1, q+1
				if e.lowMax.less(key) {
					e.lowMax = key
				}
			case key.less(h.out):
				q++
				sel = append(sel, key)
			case key.less(e.highMin):
				e.highMin = key
			}
		}
		vs.run.selKeys, vs.run.cands = sel, cands
		e.midMin, e.midMax = e.highMin, e.lowMax
		for _, k := range sel {
			if k.less(e.midMin) {
				e.midMin = k
			}
			if e.midMax.less(k) {
				e.midMax = k
			}
		}
	}
}

// boundary returns the smallest key a selection of need keys leaves out
// when j of them are among n hot keys whose smallest non-member is minOut:
// the smaller of minOut and the first unscheduled key left out, highestKey
// when every key is a member.
func (vs *ViewSet) boundary(need, j, n int, minOut effIdx) effIdx {
	b := highestKey
	if j < n {
		b = minOut
	}
	if u := vs.uorder.list(); need-j < len(u) {
		if k := vs.tnewKey(u[need-j]); k.less(b) {
			b = k
		}
	}
	return b
}

// retryEarliest serves pickEarliest from the memo of the previous pick of
// the same kind and need on vs at the same clock and median. The kept keys
// are the hot keys but the changed task's, each at its record's place: a
// task that started running since sits last in the hot set, and one Update
// returned from the quiet records first among the hot ones, where no key
// was kept. The kept split is the hint itself: exactly j keys below h.in,
// none in [h.in, h.out). So the retry re-evaluates the changed task alone,
// swaps its key and candidate entry, classifies its new key against the
// split and lets settleEarliest decide whether the split moved and hold
// the quiet records to it. It reports false, having decided nothing, when
// the memo does not fit.
//
// The kept largest member may be the changed task's old key. settle reads
// it only as the boundary key it returns when a probe decides the split at
// h.in, and the old key still separates the blocks there: it is at least
// every member and below h.in. So the split, the hint it leaves and the
// candidates below minOut stay exact. The kept smallest non-member must be
// exact, since the boundary check reads it: when it was the changed task's
// old key and the new key does not replace it, the hot keys are searched
// for the next one.
func (vs *ViewSet) retryEarliest(kind pickKind, need int, all bool) (j int, minOut effIdx, ok bool) {
	b := vs.run
	m := &b.memo
	h := &vs.earliest
	if !m.fits(vs, kind, float64(need)) || (!all && *h != m.split) {
		return 0, effIdx{}, false
	}
	c := m.changed
	running := c >= 0 && vs.recs[c].Copies > 0
	pos := -1
	if running {
		pos = int(vs.recs[c].near) - 1
	}
	back := vs.quiet != m.quiet
	switch {
	case back && !(m.wasRunning && vs.quiet == m.quiet-1 && pos == vs.quiet):
		return 0, effIdx{}, false
	case running && !m.wasRunning && pos != len(b.runKeys):
		return 0, effIdx{}, false
	}
	var key effIdx
	if c >= 0 {
		cands := b.cands
		if m.wasRunning && !back {
			for k := range cands {
				if cands[k].key.idx == c {
					cands[k] = cands[len(cands)-1]
					cands = cands[:len(cands)-1]
					break
				}
			}
		}
		if running {
			var score float64
			var cand bool
			if key, score, cand = vs.errKey(c, kind == pickRASError); cand {
				cands = append(cands, errCand{key: key, score: score})
			}
		}
		b.cands = cands
	}
	m.changed = -1
	keys, old, hadKey := b.runKeys, highestKey, running && m.wasRunning && !back
	if running {
		if hadKey {
			old = keys[pos]
		} else if !m.wasRunning {
			keys = append(keys, key)
			b.runKeys = keys
		}
		keys[pos] = key
	}
	m.quiet = vs.quiet
	if all {
		return len(vs.hot) - vs.quiet, highestKey, true
	}
	p, q := m.j, m.j
	if old.less(h.in) {
		p, q = p-1, q-1
	}
	e := splitExt{lowMax: m.lowMax, highMin: m.highMin}
	sel := b.selKeys[:0]
	if running {
		switch {
		case key.less(h.in):
			p, q = p+1, q+1
			if e.lowMax.less(key) {
				e.lowMax = key
			}
		case key.less(h.out):
			q++
			sel = append(sel, key)
		case key.less(e.highMin):
			e.highMin = key
		}
		if hadKey && e.highMin == old {
			e.highMin = highestKey
			for _, k := range keys[vs.quiet:len(vs.hot)] {
				if !k.less(h.out) && k.less(e.highMin) {
					e.highMin = k
				}
			}
		}
	}
	b.selKeys = sel
	e.midMin, e.midMax = e.highMin, e.lowMax
	if len(sel) > 0 {
		e.midMin, e.midMax = key, key
	}
	j, maxIn, minOut, _, _ := vs.settleEarliest(keys, need, p, q, e, kind == pickRASError)
	m.keepSplit(*h, j, len(vs.hot)-vs.quiet, maxIn, minOut)
	m.quiet = vs.quiet
	return j, minOut, true
}

// errKey evaluates running task i for an error-bound pick with the view's
// expressions: its effDuration selection key — a task a copy could still
// rescue finishes at the earlier of waiting and re-running — and whether
// it is a speculation candidate, with its score: GS's TRem when a fresh
// copy would finish sooner, with saving set RAS's positive saving.
func (vs *ViewSet) errKey(i int, saving bool) (key effIdx, score float64, cand bool) {
	r := &vs.recs[i]
	tnew := r.tnewAt(vs.med)
	trem, speculable := r.tremAt(vs.now, vs.groundTruth)
	key = effIdx{eff: trem, idx: i}
	if !speculable || r.Copies >= MaxCopies {
		return key, 0, false
	}
	if !(trem < tnew) {
		key.eff = tnew
	}
	if saving {
		score = savingOf(float64(r.Copies), trem, tnew)
		return key, score, score > 0
	}
	return key, trem, !(tnew >= trem)
}

// retryDeadline serves a deadline pick of kind with remaining time rem
// from the memo of the previous one on vs at the same clock and median:
// the kept best running candidate stays best over every unchanged task,
// so only the changed task is evaluated against it. The kept best itself
// changing keeps its place while its score is no worse — a speculative
// copy leaves GS's TNew as it was and raises RAS's saving while the best
// copy stays the same — and otherwise a task only a full pass finds may
// have passed it, so the retry reports false.
func (vs *ViewSet) retryDeadline(kind pickKind, rem float64) (best int, score float64, ok bool) {
	m := &vs.run.memo
	if !m.fits(vs, kind, rem) {
		return 0, 0, false
	}
	if c := m.changed; c >= 0 {
		s, cand := vs.deadlineScore(c, kind, rem)
		switch {
		case c == m.best:
			if !cand || kind.better(m.score, c, s, c) {
				return 0, 0, false
			}
			m.score = s
		case cand && (m.best == -1 || kind.better(s, c, m.score, m.best)):
			m.best, m.score = c, s
		}
		m.changed = -1
	}
	return m.best, m.score, true
}

// deadlineScore evaluates task i for a deadline pick of kind with
// remaining time rem: whether it is a speculation candidate — running,
// speculable, under the copy cap, its TNew within the deadline, and for
// GS finishing sooner on a fresh copy, for RAS saving resources — and its
// score, GS's TNew or RAS's saving. The full passes in gsDeadlineInc and
// rasDeadlineInc write these tests out inline, in an order that skips the
// progress division where it can, as passEarliest does errKey's.
func (vs *ViewSet) deadlineScore(i int, kind pickKind, rem float64) (score float64, cand bool) {
	r := &vs.recs[i]
	if r.Copies == 0 || r.Copies >= MaxCopies {
		return 0, false
	}
	tn := r.tnewAt(vs.med)
	if tn > rem {
		return 0, false
	}
	trem, ok := r.tremAt(vs.now, vs.groundTruth)
	if !ok {
		return 0, false
	}
	if kind == pickGSDeadline {
		return tn, !(tn >= trem)
	}
	s := savingOf(float64(r.Copies), trem, tn)
	return s, s > 0
}

// better reports whether a deadline candidate with score s1 and index i1
// beats one with s2 and i2: GS's lower TNew, RAS's higher saving, the
// lower index among equals.
func (k pickKind) better(s1 float64, i1 int, s2 float64, i2 int) bool {
	if s1 != s2 {
		return (k == pickGSDeadline) == (s1 < s2)
	}
	return i1 < i2
}

// keepDeadline stamps the memo with a full deadline pass of kind: its best
// running candidate and that candidate's score.
func (vs *ViewSet) keepDeadline(kind pickKind, rem float64, best int, score float64) {
	m := &vs.run.memo
	m.stamp(vs, kind, rem)
	m.best, m.score = best, score
}

// selectRunning splits the union of keys — the running tasks' selection
// keys, in any order — and the unscheduled tasks' (TNew, index) keys, in
// uorder, at its `need` smallest members. It returns how many of the
// members are running keys (j), the largest running member (meaningful
// when j > 0) and the smallest running non-member (meaningful when
// j < len(keys)), and records the split in h for the next selection of the
// same kind. keys is left as it is.
//
// The m-th smallest running key (0-based) is a member iff the unscheduled
// keys below it plus the m running keys below it leave room:
// unschedBelow + m < need. The left side grows strictly with m, so the
// running members are a prefix of the running keys in key order, and a
// quickselect finds the boundary: each partition of the still-undecided
// keys lands its pivot at its rank m, one binary search of uorder says
// which side of the boundary the pivot is on, and the other side is
// decided. That is O(r) expected partitioning and O(log r) expected
// probes.
//
// A hint first decides what it can: one counting pass places its two keys
// among the running keys (count3) and settle's probes decide a side of
// each, so only the keys that crossed the previous boundary since are
// copied out and quickselected. Every key set has one split under the
// total (key, index) order, so any hint — exact, stale or absent — gives
// the same result; it changes only the work.
func (vs *ViewSet) selectRunning(keys []effIdx, need int, h *selHint) (j int, maxIn, minOut effIdx) {
	var p, q int
	var e splitExt
	if h.set {
		p, q, e = count3(keys, h.in, h.out)
		if p == q {
			// No key between the hint keys: the nearest keys beyond each
			// lie in the outer blocks.
			e.midMin, e.midMax = e.highMin, e.lowMax
		}
	}
	return vs.settle(keys, need, h, p, q, e, false)
}

// settle finishes a selection from a pass over keys that placed the hint
// keys among them: p keys sort below h.in and q below h.out, and e holds
// the extremes of the three blocks. collected says the pass already left
// the q−p keys between the hint keys in the scratch's selKeys; otherwise,
// or when the probes decide a different range, settle collects the
// undecided keys itself. It returns what selectRunning returns and records
// the split in h.
func (vs *ViewSet) settle(keys []effIdx, need int, h *selHint, p, q int, e splitExt, collected bool) (j int, maxIn, minOut effIdx) {
	// The undecided keys are those in [from, to): lo running keys sort
	// below them and len(keys)−hi above.
	lo, hi := 0, len(keys)
	from, to := lowestKey, highestKey
	if h.set {
		// A hint key v with c running keys below it decides a side of
		// itself: the largest running key below v has at most
		// uorderSearch(v) + c − 1 keys below it, and the smallest running
		// key from v on at least uorderSearch(v) + c.
		for _, v := range [2]struct {
			key          effIdx
			c            int
			below, above effIdx
		}{{h.in, p, e.lowMax, e.midMin}, {h.out, q, e.midMax, e.highMin}} {
			n := vs.uorderSearch(v.key) + v.c
			if n <= need && v.c > lo {
				lo, from, maxIn = v.c, v.key, v.below
			}
			if n >= need && v.c < hi {
				hi, to, minOut = v.c, v.key, v.above
			}
		}
	}
	sel := vs.run.selKeys
	// The collected keys are the ranks [p, q); the undecided ones [lo, hi).
	if !collected || lo != p || hi != q {
		sel = sel[:0]
		if lo < hi {
			for _, k := range keys {
				if !k.less(from) && k.less(to) {
					sel = append(sel, k)
				}
			}
		}
		vs.run.selKeys = sel
	}
	l, r := 0, len(sel)
	for l < r {
		m := partitionPairs(sel, l, r)
		k := sel[m]
		if rank := lo + m; rank < need && vs.uorderSearch(k)+rank < need {
			l, maxIn = m+1, k
		} else {
			r, minOut = m, k
		}
	}
	j = lo + l
	*h = selHint{in: lowestKey, out: highestKey, set: true}
	if j > 0 {
		h.in = effIdx{eff: maxIn.eff, idx: maxIn.idx + 1}
	}
	if j < len(keys) {
		h.out = minOut
	}
	return j, maxIn, minOut
}

// selHint is a selection's previous split, from which the next one starts:
// the running members were the keys below in (the largest member's
// successor) and the non-members the keys from out on (the smallest
// non-member), with the sentinel keys standing for an empty side.
type selHint struct {
	in, out effIdx
	set     bool
}

// lowestKey and highestKey sort below and above every task's key.
var (
	lowestKey  = effIdx{eff: math.Inf(-1), idx: math.MinInt}
	highestKey = effIdx{eff: math.Inf(1), idx: math.MaxInt}
)

// splitExt holds the extremes of the three blocks a placement pass (count3
// or pickEarliest's) splits the running keys into; an empty outer block's
// stay at the sentinels.
type splitExt struct{ lowMax, midMin, midMax, highMin effIdx }

// count3 places keys a ≤ b among xs — p keys sort below a and q below b —
// and returns the extremes of the three blocks: below a, in [a, b) and
// from b on.
func count3(xs []effIdx, a, b effIdx) (p, q int, e splitExt) {
	e = splitExt{lowMax: lowestKey, midMin: highestKey, midMax: lowestKey, highMin: highestKey}
	mid := 0
	for _, x := range xs {
		switch {
		case x.less(a):
			p++
			if e.lowMax.less(x) {
				e.lowMax = x
			}
		case x.less(b):
			mid++
			if x.less(e.midMin) {
				e.midMin = x
			}
			if e.midMax.less(x) {
				e.midMax = x
			}
		default:
			if x.less(e.highMin) {
				e.highMin = x
			}
		}
	}
	return p, p + mid, e
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
	u := vs.uorder.list()
	maxT := vs.TNew(u[k-1])
	return u[vs.uorderSearch(effIdx{eff: maxT, idx: -1})]
}

// tnewKey is task i's (TNew, index) key, the order uorder keeps.
func (vs *ViewSet) tnewKey(i int) effIdx { return keyAt(vs.med, &vs.recs[i], i) }

// keyAt is task i's (TNew, index) key at median med.
func keyAt(med float64, r *TaskRec, i int) effIdx {
	return effIdx{eff: r.tnewAt(med), idx: i}
}

// uorderSearch returns the number of unscheduled tasks whose (TNew, index)
// key sorts below k — the position k takes in uorder.
func (vs *ViewSet) uorderSearch(k effIdx) int {
	u := vs.uorder.list()
	return sort.Search(len(u), func(p int) bool {
		return !vs.tnewKey(u[p]).less(k)
	})
}

// uorderPos returns unscheduled task i's position in uorder, located by
// its stored key; SJF's launches take the head, which is tested first. A
// miss means uorder diverged from the records — every later selection
// would be silently wrong — so it panics like the estimator's mirror.
func (vs *ViewSet) uorderPos(i int) int {
	u := vs.uorder.list()
	if len(u) > 0 && u[0] == i {
		return 0
	}
	p := vs.uorderSearch(vs.tnewKey(i))
	if p >= len(u) || u[p] != i {
		panic(fmt.Sprintf("spec: ViewSet order diverged: task %d (tnew %v) not at its key", i, vs.TNew(i)))
	}
	return p
}

// uorderRemove drops unscheduled task i from uorder. Its predecessor's
// pair mark stays when both pairs it joins were safe, and is recomputed
// otherwise.
func (vs *ViewSet) uorderRemove(i int) {
	p := vs.uorderPos(i)
	u := vs.uorder.list()
	joined := p > 0 && p+1 < len(u) && vs.recs[u[p-1]].near == 0 && vs.recs[i].near == 0
	vs.unmark(i)
	vs.uorder.remove(p)
	if p > 0 && !joined {
		vs.markPair(p - 1)
	}
}

// uorderInsert files unscheduled task i in uorder under its stored record
// and marks the two pairs it forms.
func (vs *ViewSet) uorderInsert(i int) {
	p := vs.uorderSearch(vs.tnewKey(i))
	vs.uorder.insert(p, i)
	if p > 0 {
		vs.markPair(p - 1)
	}
	vs.markPair(p)
}

// sortUorder sorts uorder by (TNew, index) and marks every pair afresh.
// Up to keptKeys tasks, each key is formed once, in the scratch, and the
// sorted indices are written back: the permutation is the one sorting the
// indices with the same comparison gives, which a larger phase still does
// in place, forming both keys at every comparison. Its keys would be one
// large allocation per sort, which the heap samples count at once.
func (vs *ViewSet) sortUorder() {
	u := vs.uorder.list()
	if len(u) > keptKeys {
		slices.SortFunc(u, func(a, b int) int {
			if vs.tnewKey(a).less(vs.tnewKey(b)) {
				return -1
			}
			return 1
		})
	} else {
		keys := slices.Grow(vs.run.tmpKeys[:0], len(u))
		for _, i := range u {
			keys = append(keys, vs.tnewKey(i))
		}
		slices.SortFunc(keys, func(a, b effIdx) int {
			if a.less(b) {
				return -1
			}
			return 1
		})
		for p, k := range keys {
			u[p] = k.idx
		}
		vs.run.tmpKeys = keys
	}
	for _, a := range vs.near {
		vs.recs[a].near = 0
	}
	vs.near = vs.near[:0]
	for p := range u {
		vs.markPair(p)
	}
}

// keptKeys is the largest uorder sortUorder sorts by keys in the scratch.
const keptKeys = 1024

// nearULPs is how many representable steps apart two keys must be for
// their order to be fixed under every tame median: 16 steps exceed
// 16·2⁻⁵³ of the smaller key, twice the 8u that four roundings can close.
const nearULPs = 16

// tame reports whether x lies in [2⁻²⁵⁶, 2²⁵⁶]. A product of three tame
// values stays in the normal range, where each rounding lands within a
// relative u = 2⁻⁵³ of the exact result — the premise of the pair marks.
func tame(x float64) bool { return x >= minTame && x <= 0x1p256 }

// minTame is the smallest tame value.
const minTame = 0x1p-256

// tameKey reports whether the record's t_new operands, Work and Factor,
// are tame.
func (r *TaskRec) tameKey() bool { return tame(r.Work) && tame(r.Factor) }

// markPair records whether the pair uorder[p], uorder[p+1] can swap under
// a median move; the last entry heads no pair.
func (vs *ViewSet) markPair(p int) {
	u := vs.uorder.list()
	a := u[p]
	if p+1 == len(u) || vs.pairSafe(a, u[p+1]) {
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
	ka, kb := ra.tnewAt(vs.med), rb.tnewAt(vs.med)
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

// sortedPos returns v's position in the ascending list xs. A miss means
// the list diverged from the records, so it panics like uorderPos.
func sortedPos(xs []int, v int, what string) int {
	p := sort.SearchInts(xs, v)
	if p >= len(xs) || xs[p] != v {
		panic(fmt.Sprintf("spec: ViewSet %s list diverged: task %d not present", what, v))
	}
	return p
}

// window is a list of task indices kept as the window s[head:] of a
// reusable backing slice. A removal or an insertion shifts whichever side
// of its position is shorter — an insertion in the front half uses the
// slack earlier head removals left — so taking the head, the launch SJF
// and the FIFO baselines make, is O(1). Reading the list is list().
type window struct {
	s    []int
	head int
}

// list returns the list; it is valid until the window next changes.
func (w *window) list() []int { return w.s[w.head:] }

func (w *window) len() int { return len(w.s) - w.head }

// reset empties the window, keeping its capacity.
func (w *window) reset() { w.s, w.head = w.s[:0], 0 }

// push appends v at the back.
func (w *window) push(v int) { w.s = append(w.s, v) }

// remove drops the entry at position p.
func (w *window) remove(p int) {
	l := w.s[w.head:]
	switch {
	case len(l) == 1:
		w.reset()
	case p < len(l)/2:
		copy(l[1:p+1], l[:p])
		w.head++
	default:
		copy(l[p:], l[p+1:])
		w.s = w.s[:len(w.s)-1]
	}
}

// insert puts v at position p. With no slack at the front, or past the
// middle, the back shifts; a full backing slice first slides the list
// down when at least a quarter of it is slack, and grows otherwise.
func (w *window) insert(p, v int) {
	n := w.len()
	if w.head > 0 && p < n/2 {
		w.head--
		l := w.s[w.head:]
		copy(l[:p], l[1:p+1])
		l[p] = v
		return
	}
	if len(w.s) == cap(w.s) && 4*w.head >= n {
		copy(w.s, w.s[w.head:])
		w.s, w.head = w.s[:n], 0
	}
	w.s = slices.Insert(w.s, w.head+p, v)
}
