// Incremental candidate views: each job's phase keeps a spec.ViewSet
// alive across events instead of rebuilding its TaskViews on every launch
// attempt. The set stores one record per task holding only what neither
// the clock nor the estimator moves — work, t_new factor, the best copy's
// start, duration, end and t_rem bias, the first start and the copy count
// — and evaluates views from it when a policy reads them, with the float
// expressions a from-scratch rebuild uses. So only events dirty records,
// and dirtying is all an event does to the set: a copy launch, a task
// completing and a copy killed, preempted or lost mark that task, and the
// refresh before the next launch attempt — the set's only writer — drops
// the dirtied tasks that completed and re-derives and re-files the rest.
// Time passing dirties nothing (running views are evaluated at the
// attempt's clock, once per attempt, into the simulator's one running-view
// buffer), and neither does an estimator update: t_new is median × work ×
// factor on read, and a median move only rechecks the near-tied
// neighbours of the set's (TNew, index) order (spec.ViewSet.SetMedian).
//
// The one per-attempt walk left is the estimator's: every attempt records
// a pending t_rem sample for each speculable running task whose best copy
// still has room for one. A job lists those best copies, and the walk
// visits only the ones that may be speculable now; a copy whose progress
// cannot reach the speculation threshold before a known time waits, in
// order of that time, at the head of the list (progress never decreases
// as the clock advances), and a copy leaves once its four samples are
// taken. A launch attempt on an n-task job therefore re-derives O(dirtied)
// records and visits only copies that take a sample, not O(running), let
// alone n.
//
// The views equal a from-scratch rebuild of every incomplete task's view
// exactly, not approximately, and the side effects — estimator bias
// draws, oracle duration-factor draws, and pending-t_rem accuracy samples
// — land at the points and in the order the goldens were recorded with,
// when every attempt rescanned every incomplete task in ascending index
// order: draws happen only while re-deriving a dirtied record, in
// ascending index order, and a sample depends only on its own task's
// view. The differential tests in this package (TestDifferential*,
// FuzzIncrementalViews) hold the ViewSet to DeepEqual a rebuild and
// PickIncremental to the reference Pick's decision at every launch
// attempt.
package sched

import (
	"math"
	"slices"
	"sort"

	"github.com/approx-analytics/grass/internal/spec"
)

// jobViews is the per-job incremental view state.
type jobViews struct {
	vs spec.ViewSet
	// dirty lists task slots touched since the last refresh (deduped via
	// the task block's dirty bits).
	dirty []int
	// sampling lists the best copies that may still take a pending t_rem
	// sample, each at most once (copyRun.listed): first, latest time
	// first, the copies that cannot be speculable before their time; then
	// the due tail, in any order, of copies that may be speculable now,
	// which every attempt visits. Entries of copies that died or lost
	// their best-copy status are dropped when met.
	sampling []sampleRef
	// live says vs is built for the job's current phase. A phase starts
	// without it, and the phase's first launch attempt builds the set —
	// lazily, so the build's RNG draws land at the stream positions the
	// goldens pin.
	live bool
}

// sampleRef names one incarnation of a pooled copy — its serial tells a
// recycled copy from the one listed — and the time before which it cannot
// be speculable (-Inf once due).
type sampleRef struct {
	c      *copyRun
	serial uint64
	at     float64
}

// invalidate drops the view state (phase ended).
func (jv *jobViews) invalidate() {
	jv.live = false
	jv.dirty = jv.dirty[:0]
	jv.sampling = jv.sampling[:0]
}

// dirtyTask marks task slot ti for re-derivation at the next refresh —
// all a launch, a kill or a completion does to the job's views.
func (s *Simulator) dirtyTask(js *jobState, ti int) {
	jv := &js.jv
	if !jv.live || js.tasks.dirty[ti] {
		return
	}
	js.tasks.dirty[ti] = true
	jv.dirty = append(jv.dirty, ti)
}

// initViews builds the phase's ViewSet from scratch — the one O(n) walk
// per phase. It visits tasks in ascending index order so the estimator
// bias draws (and oracle factor draws) consume the shared RNG streams at
// exactly the positions the goldens pin. No pending-t_rem samples are
// recorded: a phase's first launch attempt happens before any of its
// copies run.
func (s *Simulator) initViews(js *jobState, now float64) {
	jv := &js.jv
	tb := &js.tasks
	jv.vs.Reset(js.phase.n, spec.Eval{GroundTruth: s.oracle, Buf: &s.runViews})
	for i := 0; i < js.phase.n; i++ {
		if tb.completed[i] {
			continue
		}
		jv.vs.Init(i, s.taskRec(js, i))
		tb.dirty[i] = false
		s.viewTouches++
	}
	jv.vs.Seal(now, s.est.NormalizedMedian())
	jv.dirty = jv.dirty[:0]
	jv.sampling = jv.sampling[:0]
	jv.live = true
}

// refreshViews brings the job's ViewSet up to date for a launch attempt
// at the current simulation time and does the per-attempt estimator
// bookkeeping (one pending t_rem sample per speculable running task whose
// best copy has room). It is the only writer of the set: it moves the
// t_new median, drops the dirtied tasks that completed and re-derives and
// files the other dirtied records in ascending index order — a full
// rescan's order restricted to the records that can have changed — and
// visits the sampling list.
func (s *Simulator) refreshViews(js *jobState) *spec.ViewSet {
	jv := &js.jv
	now := s.eng.Now()
	if !jv.live {
		s.initViews(js, now)
		return &jv.vs
	}
	jv.vs.Begin(now)
	s.pairRechecks += uint64(jv.vs.SetMedian(s.est.NormalizedMedian()))
	// Copies whose time has come join the due tail.
	due := len(jv.sampling)
	for due > 0 && jv.sampling[due-1].at <= now {
		due--
	}
	tb := &js.tasks
	sort.Ints(jv.dirty)
	for _, i := range jv.dirty {
		tb.dirty[i] = false
		if tb.completed[i] {
			jv.vs.Remove(i)
			continue
		}
		jv.vs.Update(i, s.taskRec(js, i))
		s.viewTouches++
		if !s.oracle && len(tb.copies[i]) > 0 {
			due = s.listBestCopy(js, i, now, due)
		}
	}
	jv.dirty = jv.dirty[:0]
	if !s.oracle {
		s.sampleTRem(js, now, due)
	}
	return &jv.vs
}

// listBestCopy lists task i's best copy for pending t_rem samples, unless
// it is listed already or full: in the due tail of the sampling list when
// it may be speculable now, in the list's ordered head when it cannot be
// before a known time, and nowhere when it never can be. It returns the
// due tail's new start.
func (s *Simulator) listBestCopy(js *jobState, i int, now float64, due int) int {
	c := js.tasks.best[i]
	if c.listed || c.pendN == len(c.pendTRem) {
		return due
	}
	c.listed = true
	ref := sampleRef{c: c, serial: c.serial, at: js.jv.vs.SpeculableFrom(i)}
	switch l := js.jv.sampling; {
	case !(ref.at > now):
		ref.at = math.Inf(-1)
		js.jv.sampling = append(l, ref)
	case !math.IsInf(ref.at, 1):
		js.jv.sampling = slices.Insert(l, sort.Search(due, func(k int) bool { return l[k].at < ref.at }), ref)
		due++
	}
	return due
}

// sampleTRem records one pending t_rem accuracy sample per speculable
// running task whose best copy has room, the per-attempt cadence the
// estimator's measured accuracy (and everything downstream of it) depends
// on. It visits the sampling list's due tail, from due on; a copy leaves
// once full, dead or no longer its task's best (a new best copy dirties
// the task, which lists it).
func (s *Simulator) sampleTRem(js *jobState, now float64, due int) {
	jv := &js.jv
	tb := &js.tasks
	keep := jv.sampling[:due]
	for _, ref := range jv.sampling[due:] {
		c := ref.c
		if c.serial != ref.serial {
			continue // the copy died and was recycled
		}
		i := int(c.task)
		if c.js != js || tb.best[i] != c {
			c.listed = false
			continue
		}
		if v := jv.vs.At(i); v.Speculable {
			c.pendTRem[c.pendN] = pend{est: v.TRem, at: now}
			c.pendN++
			if c.pendN == len(c.pendTRem) {
				continue
			}
		} else {
			s.viewTouches++ // a visit that took no sample
		}
		ref.at = math.Inf(-1)
		keep = append(keep, ref)
	}
	jv.sampling = keep
}

// taskRec derives task ti's record — what its view depends on besides the
// clock and the t_new median. It may draw RNG (a task's first t_new bias,
// an oracle redraw of a consumed duration factor) at the points the
// goldens pin.
func (s *Simulator) taskRec(js *jobState, ti int) spec.TaskRec {
	tb := &js.tasks
	r := spec.TaskRec{Work: tb.work[ti]}
	if s.oracle {
		if tb.nextFactor[ti] <= 0 {
			tb.nextFactor[ti] = s.drawFactor(js)
		}
		r.Factor = tb.nextFactor[ti]
	} else {
		if tb.tnewBias[ti] == 0 {
			tb.tnewBias[ti] = s.est.SampleTNewBias()
		}
		r.Factor = tb.tnewBias[ti]
	}
	if n := len(tb.copies[ti]); n > 0 {
		// The earliest-finishing copy is cached on launch/completion/
		// preemption, so deriving a record does not rescan the copies.
		bc := tb.best[ti]
		r.Copies = int32(n)
		r.Start, r.Duration, r.End, r.TRemBias = bc.start, bc.duration, bc.end(), bc.tremBias
		r.FirstStart = tb.firstStart[ti]
	}
	return r
}
