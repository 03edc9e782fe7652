// Incremental candidate views: each job's phase keeps a spec.ViewSet
// alive across events instead of rebuilding its TaskViews on every launch
// attempt. The set stores one record per task holding only what neither
// the clock nor the estimator moves — work, t_new factor, the best copy's
// start, duration, end and t_rem bias, the first start and the copy count
// — and a policy evaluates what it decides on from the records when it
// reads them, with the float expressions a from-scratch rebuild uses. So
// only events dirty records, and dirtying is all an event does to the set:
// a copy launch, a task completing and a copy killed, preempted or lost
// mark that task, and the refresh before the next launch attempt — the
// set's only writer — drops the dirtied tasks that completed and
// re-derives and re-files the rest. Time passing dirties nothing (GS and
// RAS evaluate the running records at the attempt's clock; a deadline pick
// reads only the records its set's hot set holds, and a record it finds no
// speculation candidate leaves the scan under its own certificate until a
// re-filing, its wake or a median below its floor brings it back), and
// neither does an estimator update: t_new is median × work × factor on
// read, and a
// median move only rechecks the near-tied neighbours of the set's
// (TNew, index) order (spec.ViewSet.SetMedian). A launch attempt on an
// n-task job therefore re-derives O(dirtied) records, not O(running), let
// alone n. What a pick evaluated is kept only for the job's next attempt
// at the same instant: the simulator's one spec.RunBuf keeps the last GS
// or RAS pick, and when the refresh between two attempts re-files just the
// task the first one launched, the retry re-evaluates that record alone
// (spec.RunBuf.Passes counts the full passes, and spec.RunBuf.DeadlineScan
// the records the deadline passes read).
//
// Deriving a record reads the scheduler's state and keyed draws only (a
// task's t_new bias, drawn once per phase and kept in the task block, or
// under ground truth its next copy's duration factor, each a pure function
// of its key), so a refresh has no side effect beyond the set itself and
// the bias it keeps, and neither has a launch attempt that launches
// nothing — except a GRASS job's while it has not settled, whose every
// attempt evaluates the switch. That is what lets a declining pick's
// certificate put its job to sleep (sleep.go): a sleeping job is offered
// no slot and its refresh is deferred, not lost, to its first pick after it
// wakes. Its completed tasks wait on the dirty list (a dirty that does not
// complete a task wakes the job); filing is order-free, SetMedian handles
// any median jump, and a stale pick memo or selection hint changes only
// the work. The views equal a from-scratch rebuild of every incomplete
// task's view exactly, not approximately: the differential tests in this
// package (TestDifferential*, FuzzIncrementalViews) hold the ViewSet to
// DeepEqual a rebuild and PickIncremental to the reference Pick's decision
// at every launch attempt that runs a pick, and the reference Pick to
// decline at every attempt a certificate answers.
package sched

import "github.com/approx-analytics/grass/internal/spec"

// jobViews is the per-job incremental view state.
type jobViews struct {
	vs spec.ViewSet
	// dirty lists task slots touched since the last refresh (deduped via
	// the task block's dirty bits).
	dirty []int
	// live says vs is built for the job's current phase. A phase starts
	// without it, and the phase's first launch attempt builds the set.
	live bool
}

// invalidate drops the view state (phase ended).
func (jv *jobViews) invalidate() {
	jv.live = false
	jv.dirty = jv.dirty[:0]
}

// dirtyTask marks task slot ti for re-derivation at the next refresh —
// all a launch, a kill or a completion does to the job's views. A dirty
// that does not complete its task wakes a sleeping job: its certificate
// covers completions only. A completion's own dirty and its siblings'
// kills come after completed[ti] is set.
func (s *Simulator) dirtyTask(js *jobState, ti int) {
	if js.asleep && !js.tasks.completed[ti] {
		s.wake(js)
	}
	jv := &js.jv
	if !jv.live || js.tasks.dirty[ti] {
		return
	}
	js.tasks.dirty[ti] = true
	jv.dirty = append(jv.dirty, ti)
}

// initViews builds the phase's ViewSet from scratch — the one O(n) walk
// per phase — visiting tasks in ascending index order, the order the
// set's membership lists keep.
func (s *Simulator) initViews(js *jobState, now float64) {
	jv := &js.jv
	tb := &js.tasks
	jv.vs.Reset(js.phase.n, spec.Eval{GroundTruth: s.oracle, Buf: &s.runBuf})
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
	jv.live = true
}

// refreshViews brings the job's ViewSet up to date for a launch attempt
// at the current simulation time. It is the only writer of the set: it
// moves the clock and the t_new median, drops the dirtied tasks that
// completed and re-derives and files the other dirtied records. Filing is
// order-free and deriving a record draws only keyed randomness, so the
// dirty list is walked in the order events dirtied it.
func (s *Simulator) refreshViews(js *jobState) *spec.ViewSet {
	jv := &js.jv
	now := s.eng.Now()
	if !jv.live {
		s.initViews(js, now)
		return &jv.vs
	}
	jv.vs.Begin(now)
	s.pairRechecks += uint64(jv.vs.SetMedian(s.est.NormalizedMedian()))
	tb := &js.tasks
	for _, i := range jv.dirty {
		tb.dirty[i] = false
		if tb.completed[i] {
			jv.vs.Remove(i)
			continue
		}
		jv.vs.Update(i, s.taskRec(js, i))
		s.viewTouches++
	}
	jv.dirty = jv.dirty[:0]
	return &jv.vs
}

// taskRec derives task ti's record — what its view depends on besides the
// clock and the t_new median. Its factor is a keyed draw: the task's t_new
// bias, a function of (job, phase, task) drawn at the phase's first
// derivation and kept in the task block, or under ground truth the
// duration factor its next copy will draw, which moves with every launch.
func (s *Simulator) taskRec(js *jobState, ti int) spec.TaskRec {
	tb := &js.tasks
	r := spec.TaskRec{Work: tb.work[ti]}
	if s.oracle {
		r.Factor = s.factor(js, ti, tb.launched[ti])
	} else {
		if tb.tnewBias[ti] == 0 {
			tb.tnewBias[ti] = s.est.SampleTNewBias(s.keyed(keyTNew, js, ti, 0))
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
