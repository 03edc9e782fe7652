// Incremental candidate views: each job's TaskViews live in a
// spec.ViewSet that is kept alive across events instead of being rebuilt
// on every launch attempt. Events dirty only the tasks they touch — a
// copy launch, finish or preemption dirties that task; an estimator
// update dirties every incomplete task, but only when the normalized
// median actually moved (the only input a task's t_new depends on besides
// its immutable work and bias) — and the refresh before the next launch
// attempt re-derives exactly those views plus the time-dependent fields
// of running tasks. A launch attempt on an n-task job therefore touches
// O(running + dirtied) views instead of n.
//
// The views equal a from-scratch rebuild of every incomplete task's view
// exactly, not approximately, and the side effects — estimator bias
// draws, oracle duration-factor draws, and pending-t_rem accuracy samples
// — land at the points and in the order the goldens were recorded with,
// when every attempt rescanned every incomplete task in ascending index
// order. The differential tests in this package (TestDifferential*,
// FuzzIncrementalViews) hold the ViewSet to DeepEqual a rebuild and
// PickIncremental to the reference Pick's decision at every launch
// attempt.
package sched

import (
	"sort"

	"github.com/approx-analytics/grass/internal/spec"
)

// jobViews is the per-job incremental view state.
type jobViews struct {
	vs spec.ViewSet
	// phase identifies which phaseRun vs is built for; a mismatch (new
	// phase, or never built) triggers a full lazy init on the next launch
	// attempt — lazy so the init's RNG draws land at the stream positions
	// the goldens pin (a phase's first launch attempt).
	phase *phaseRun
	// estVer/median are the estimator state the TNew values were computed
	// at: a version bump with an unchanged normalized median changes no
	// estimate and therefore dirties nothing.
	estVer uint64
	median float64
	// lastNow is the simulation time the running views were refreshed at;
	// within one dispatch round's timestamp they stay valid.
	lastNow float64
	// dirty lists task slots touched since the last refresh (deduped via
	// the task block's dirty bits).
	dirty []int

	// onTNewRefresh, when set (tests), observes every estimator-driven
	// TNew rewrite — the invalidation-exactness property tests hook it.
	onTNewRefresh func(taskIndex int)
}

// live reports whether the view state tracks the job's current phase.
func (jv *jobViews) live(js *jobState) bool { return jv.phase == js.phase && jv.phase != nil }

// invalidate drops the view state (phase ended).
func (jv *jobViews) invalidate() {
	jv.phase = nil
	jv.dirty = jv.dirty[:0]
}

// dirtyTask marks task slot ti for re-derivation at the next refresh.
func (s *Simulator) dirtyTask(js *jobState, ti int) {
	jv := &js.jv
	if !jv.live(js) || js.tasks.dirty[ti] {
		return
	}
	js.tasks.dirty[ti] = true
	jv.dirty = append(jv.dirty, ti)
}

// noteLaunch updates the view state for a copy launch on task ti: the
// first copy moves the task to the running list, and the task's view
// (copy count, best copy, consumed oracle factor) is stale until refresh.
func (s *Simulator) noteLaunch(js *jobState, ti int) {
	if !js.jv.live(js) {
		return
	}
	if len(js.tasks.copies[ti]) == 1 {
		js.jv.vs.NoteLaunched(ti)
	}
	s.dirtyTask(js, ti)
}

// notePreempt updates the view state after a copy of task ti was preempted.
func (s *Simulator) notePreempt(js *jobState, ti int) {
	if !js.jv.live(js) {
		return
	}
	if len(js.tasks.copies[ti]) == 0 {
		js.jv.vs.NoteIdle(ti)
	}
	s.dirtyTask(js, ti)
}

// noteComplete removes task ti from the view state when it completes.
func (s *Simulator) noteComplete(js *jobState, ti int) {
	if !js.jv.live(js) {
		return
	}
	js.jv.vs.Complete(ti)
	// A stale dirty entry is skipped (and the flag cleared) by the next
	// refresh walk; the membership and order lists no longer know i.
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
	jv.vs.Reset(js.phase.n)
	if !s.cfg.Oracle {
		jv.estVer = s.est.Version()
		jv.median = s.est.NormalizedMedian()
	}
	for i := 0; i < js.phase.n; i++ {
		if tb.completed[i] {
			continue
		}
		jv.vs.Init(s.taskView(js, i, now, true))
		tb.dirty[i] = false
		s.viewTouches++
	}
	jv.vs.Seal()
	jv.dirty = jv.dirty[:0]
	jv.lastNow = now
	jv.phase = js.phase
}

// refreshViews brings the job's ViewSet up to date for a launch attempt
// at the current simulation time and does the per-attempt estimator
// bookkeeping (one pending t_rem sample per speculable running task). The
// walk covers the union of the dirty list and the running set in
// ascending index order — a full rescan's order restricted to the tasks
// whose views can have changed.
func (s *Simulator) refreshViews(js *jobState) *spec.ViewSet {
	jv := &js.jv
	now := s.eng.Now()
	if !jv.live(js) {
		s.initViews(js, now)
		return &jv.vs
	}
	// Estimator invalidation: a version bump re-derives TNew for every
	// incomplete task, but only when the normalized median moved — TNew_i
	// = median × work_i × bias_i, so an unchanged median means every
	// estimate is unchanged. The uniform rescale preserves the
	// (TNew, index) order up to float rounding, which ResortByTNew checks
	// and repairs.
	//
	// Why this O(incomplete) patch loop stays, and the sub-O(n) "lazy
	// multiplicative epoch" does not land: an epoch scheme would keep the
	// stored keys and fold the median movement into one multiplier
	// (read TNew as stored × med₂/med₁), making the rescale O(1). That is
	// provably NOT hash-identical to this loop. The loop computes
	// fl(fl(fl(med₂·w)·b)) while the epoch reads back
	// fl(fl(fl(med₁·w)·b)·fl(med₂/med₁)) — different rounding paths, and
	// ~45% of random (med₁, med₂, w, b) quadruples differ in the last ulp
	// (TestLazyTNewRescaleIsInexact pins witnesses). The same holds for
	// re-associating to an immutable per-task base, fl(med·fl(w·b)): ~35%
	// of quadruples differ from the left-to-right product, so even
	// changing the canonical formula would move every golden. And the
	// ordered structure cannot simply skip the resort either: rounding
	// flips the relative order of near-tied keys under a median move
	// (that is exactly why ResortByTNew exists), so a structure that is
	// not revalidated after a rescale eventually violates the (TNew,
	// index) invariant the ViewSet's keyed search panics on. The loop is
	// also already off the critical asymptotics: it runs at most once per
	// completion (not per attempt), only when the normalized median
	// actually moved, and its body is a two-multiply array patch — the
	// tnewRescales counter in BENCH_sim.json tracks exactly this cost.
	tb := &js.tasks
	if !s.cfg.Oracle {
		if ver := s.est.Version(); ver != jv.estVer {
			if med := s.est.NormalizedMedian(); med != jv.median {
				for i := 0; i < js.phase.n; i++ {
					if tb.completed[i] {
						continue
					}
					jv.vs.SetTNewBulk(i, med*tb.work[i]*tb.tnewBias[i])
					s.tnewRescales++
					if jv.onTNewRefresh != nil {
						jv.onTNewRefresh(i)
					}
				}
				jv.vs.ResortByTNew()
				jv.median = med
			}
			jv.estVer = ver
		}
	}
	sort.Ints(jv.dirty)
	nowAdvanced := now != jv.lastNow
	run := jv.vs.Running()
	di, ri := 0, 0
	for di < len(jv.dirty) || ri < len(run) {
		var i int
		switch {
		case di >= len(jv.dirty):
			i = run[ri]
			ri++
		case ri >= len(run):
			i = jv.dirty[di]
			di++
		case jv.dirty[di] < run[ri]:
			i = jv.dirty[di]
			di++
		case run[ri] < jv.dirty[di]:
			i = run[ri]
			ri++
		default:
			i = run[ri]
			ri++
			di++
		}
		if tb.completed[i] {
			tb.dirty[i] = false
			continue
		}
		if tb.dirty[i] || (nowAdvanced && len(tb.copies[i]) > 0) {
			jv.vs.Update(s.taskView(js, i, now, true))
			tb.dirty[i] = false
		}
		// Record one pending t_rem accuracy sample per speculable running
		// task per attempt: the estimator's measured accuracy, and
		// everything downstream of it, depends on this cadence. The stored
		// view is current: a best-copy change dirties the task, and a time
		// change refreshed it above.
		if !s.cfg.Oracle && len(tb.copies[i]) > 0 {
			if v := jv.vs.At(i); v.Speculable {
				if bc := tb.best[i]; bc.pendN < len(bc.pendTRem) {
					bc.pendTRem[bc.pendN] = pend{est: v.TRem, at: now}
					bc.pendN++
				}
			}
		}
		s.viewTouches++
	}
	jv.dirty = jv.dirty[:0]
	jv.lastNow = now
	return &jv.vs
}

// taskView derives one task's current TaskView — the single source of
// truth for the view float math, shared by the incremental init/refresh
// and the differential check. With record set it may draw RNG (a task's
// first t_new bias, an oracle redraw of a consumed duration factor) at
// the points the goldens pin; record=false (check mode) derives the view
// purely from existing state.
func (s *Simulator) taskView(js *jobState, ti int, now float64, record bool) spec.TaskView {
	tb := &js.tasks
	v := spec.TaskView{Index: ti}
	if len(tb.copies[ti]) > 0 {
		v.Running = true
		v.Copies = len(tb.copies[ti])
		// The earliest-finishing copy is cached on launch/completion/
		// preemption, so deriving a view does not rescan the copies.
		bestCopy := tb.best[ti]
		trueRem := tb.bestEnd[ti] - now
		if trueRem < 0 {
			trueRem = 0
		}
		v.Elapsed = now - tb.firstStart[ti]
		if bestCopy.duration > 0 {
			p := (now - bestCopy.start) / bestCopy.duration
			if p > 0.999 {
				p = 0.999
			}
			if p < 0 {
				p = 0
			}
			v.Progress = p
		}
		if s.cfg.Oracle {
			v.Speculable = true
			v.TRem = trueRem
		} else {
			v.Speculable = v.Progress >= s.cfg.MinSpecProgress
			// Extrapolation error shrinks as progress accumulates: a
			// nearly-done copy's remaining time is well known.
			bias := 1 + (bestCopy.tremBias-1)*(1-v.Progress)
			v.TRem = trueRem * bias
		}
	}
	if s.cfg.Oracle {
		if record && tb.nextFactor[ti] <= 0 {
			tb.nextFactor[ti] = s.drawFactor(js)
		}
		v.TNew = tb.work[ti] * tb.nextFactor[ti]
	} else {
		if record && tb.tnewBias[ti] == 0 {
			tb.tnewBias[ti] = s.est.SampleTNewBias()
		}
		v.TNew = s.est.NormalizedMedian() * tb.work[ti] * tb.tnewBias[ti]
	}
	return v
}
