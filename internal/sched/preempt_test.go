package sched

import (
	"math"
	"testing"

	"github.com/approx-analytics/grass/internal/simevent"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// saturatedSim admits one big NoSpec job at t=0 that fills every slot, and
// returns the simulator, the job, and the earliest completion time of any
// running copy — probes scheduled before that time see no other events.
func saturatedSim(t *testing.T, seed int64, tasks int) (*Simulator, *jobState, float64) {
	t.Helper()
	s, err := New(smallConfig(seed), spec.Stateless(spec.NoSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	s.admit(uniformJob(0, tasks, task.Exact(), 0))
	if s.cl.FreeSlots() != 0 {
		t.Fatalf("cluster not saturated: %d free", s.cl.FreeSlots())
	}
	js := s.active[0]
	minEnd := math.Inf(1)
	tb := &js.tasks
	for i := 0; i < js.phase.n; i++ {
		if len(tb.copies[i]) > 0 && tb.best[i].end() < minEnd {
			minEnd = tb.best[i].end()
		}
	}
	return s, js, minEnd
}

// TestPreemptionProtectsArrivingJob: a small job arriving into a saturated
// cluster must take its fair share immediately via preemption rather than
// waiting for the big job's long copies to finish.
func TestPreemptionProtectsArrivingJob(t *testing.T) {
	cfg := smallConfig(31) // 20 slots
	// Big job: 200 long tasks that will occupy every slot for a while.
	big := uniformJob(0, 200, task.Exact(), 0)
	for i := range big.InputWork {
		big.InputWork[i] = 50
	}
	// Small job arrives shortly after with short tasks and a deadline far
	// shorter than the big job's task length.
	small := uniformJob(1, 10, task.NewDeadline(30), 1)
	stats := runOne(t, cfg, spec.Stateless(spec.GS{}), []*task.Job{big, small})
	var smallRes, bigRes JobResult
	for _, r := range stats.Results {
		if r.JobID == 1 {
			smallRes = r
		} else {
			bigRes = r
		}
	}
	if smallRes.Accuracy < 0.5 {
		t.Fatalf("small job starved: accuracy %v", smallRes.Accuracy)
	}
	if bigRes.Preempted == 0 {
		t.Fatal("big job lost no copies to preemption")
	}
	if bigRes.Accuracy != 1 {
		t.Fatalf("big exact job must still complete (accuracy %v)", bigRes.Accuracy)
	}
}

// TestNoPreemptionWhenSlotsFree: preemption must not fire while the cluster
// has spare capacity.
func TestNoPreemptionWhenSlotsFree(t *testing.T) {
	jobs := []*task.Job{
		uniformJob(0, 5, task.Exact(), 0),
		uniformJob(1, 5, task.Exact(), 0.5),
	}
	stats := runOne(t, smallConfig(32), spec.Stateless(spec.GS{}), jobs)
	for _, r := range stats.Results {
		if r.Preempted != 0 {
			t.Fatalf("job %d preempted %d copies with an idle cluster", r.JobID, r.Preempted)
		}
	}
}

// TestWaterfillShares: small demands are fully served; the leftover splits
// among big jobs.
func TestWaterfillShares(t *testing.T) {
	s, err := New(smallConfig(33), spec.Stateless(spec.GS{})) // 20 slots
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, n int) *jobState {
		j := uniformJob(id, n, task.Exact(), 0)
		js := &jobState{job: j}
		js.phase = s.newInputPhase(js, j)
		return js
	}
	small := mk(0, 4)
	big1 := mk(1, 100)
	big2 := mk(2, 100)
	s.active = []*jobState{small, big1, big2}
	for _, js := range s.active {
		s.insertDemand(js)
	}
	s.refreshShares()
	if small.share != 4 {
		t.Fatalf("small job share %d, want its full demand 4", small.share)
	}
	if big1.share != 8 || big2.share != 8 {
		t.Fatalf("big shares %d/%d, want 8/8 (leftover split)", big1.share, big2.share)
	}
}

// TestWaterfillSharesUnderDemand: with total demand below capacity everyone
// gets their demand.
func TestWaterfillSharesUnderDemand(t *testing.T) {
	s, err := New(smallConfig(34), spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	j := uniformJob(0, 7, task.Exact(), 0)
	js := &jobState{job: j}
	js.phase = s.newInputPhase(js, j)
	s.active = []*jobState{js}
	s.insertDemand(js)
	s.refreshShares()
	if js.share != 7 {
		t.Fatalf("share %d, want 7", js.share)
	}
}

// TestPreemptionConservesSlots: slot accounting must stay consistent across
// heavy preemption churn.
func TestPreemptionConservesSlots(t *testing.T) {
	cfg := smallConfig(35)
	jobs := make([]*task.Job, 0, 12)
	for i := 0; i < 12; i++ {
		n := 30
		if i%3 == 0 {
			n = 150
		}
		jobs = append(jobs, uniformJob(i, n, task.NewDeadline(20), float64(i)))
	}
	stats := runOne(t, cfg, spec.Stateless(spec.RAS{}), jobs)
	if len(stats.Results) != 12 {
		t.Fatalf("%d results", len(stats.Results))
	}
	// The run completing at all (Release/Acquire panics otherwise) plus a
	// sane utilization proves conservation.
	if stats.MeanUtilization <= 0 || stats.MeanUtilization > 1 {
		t.Fatalf("utilization %v", stats.MeanUtilization)
	}
}

// TestFirstStartResetAfterPreemption: when preemptYoungest removes a task's
// only copy, a later relaunch must reset firstStart to the relaunch time —
// otherwise Elapsed views and the straggler span would count time the task
// spent sitting in the unscheduled pool.
func TestFirstStartResetAfterPreemption(t *testing.T) {
	s, js, minEnd := saturatedSim(t, 51, 40)
	probe := minEnd / 2
	probed := false
	s.eng.At(probe, func(*simevent.Engine) {
		probed = true
		tb := &js.tasks
		hadCopy := make([]bool, js.phase.n)
		for i := 0; i < js.phase.n; i++ {
			hadCopy[i] = len(tb.copies[i]) == 1
		}
		if !s.preemptYoungest(js) {
			t.Fatal("preemptYoungest found nothing to kill")
		}
		victim := -1
		for i := 0; i < js.phase.n; i++ {
			if hadCopy[i] && len(tb.copies[i]) == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Fatal("no task was emptied by preemption")
		}
		if tb.firstStart[victim] != 0 {
			t.Fatalf("victim firstStart %v before relaunch, want its original 0", tb.firstStart[victim])
		}
		// NoSpec relaunches the lowest-index unscheduled task — the victim,
		// whose index precedes every never-launched task.
		s.dispatch()
		if len(tb.copies[victim]) != 1 {
			t.Fatalf("victim not relaunched: %d copies", len(tb.copies[victim]))
		}
		if tb.firstStart[victim] != probe {
			t.Fatalf("victim firstStart %v after relaunch at %v; stale spans poison Elapsed views", tb.firstStart[victim], probe)
		}
		if tb.best[victim] == nil || tb.best[victim] != tb.copies[victim][0] {
			t.Fatal("best-copy cache not rebuilt on relaunch")
		}
	})
	for !probed && s.eng.Step() {
	}
	if !probed {
		t.Fatal("the probe never fired")
	}
}

// TestUtilizationIntegralAcrossPreemption pins the utilization integral
// through a preempt + relaunch cycle with hand-computable utilization: full
// until the preemption, 19/20 while the slot sits free, full again after the
// relaunch. A missing noteUtil before any of the occupancy changes shifts
// the integral.
func TestUtilizationIntegralAcrossPreemption(t *testing.T) {
	s, js, minEnd := saturatedSim(t, 52, 40)
	p1, p2, p3 := minEnd/4, minEnd/2, 3*minEnd/4
	slots := float64(s.cl.TotalSlots())
	const eps = 1e-12
	s.eng.At(p1, func(*simevent.Engine) {
		if !s.preemptYoungest(js) {
			t.Fatal("nothing to preempt")
		}
		if got, want := s.utilIntegral, p1; math.Abs(got-want) > eps {
			t.Fatalf("integral %v at preemption, want %v (full cluster since t=0)", got, want)
		}
	})
	s.eng.At(p2, func(*simevent.Engine) {
		s.noteUtil()
		want := p1 + (p2-p1)*(slots-1)/slots
		if got := s.utilIntegral; math.Abs(got-want) > eps {
			t.Fatalf("integral %v with one slot free, want %v", got, want)
		}
		s.dispatch() // refill the slot
		if s.cl.FreeSlots() != 0 {
			t.Fatalf("dispatch left %d slots free", s.cl.FreeSlots())
		}
	})
	probed := false
	s.eng.At(p3, func(*simevent.Engine) {
		probed = true
		s.noteUtil()
		want := p1 + (p2-p1)*(slots-1)/slots + (p3 - p2)
		if got := s.utilIntegral; math.Abs(got-want) > eps {
			t.Fatalf("integral %v after relaunch, want %v", got, want)
		}
	})
	for !probed && s.eng.Step() {
	}
	if !probed {
		t.Fatal("the last probe never fired")
	}
}

// TestPreemptForFairnessTerminates drives preemptForFairness directly
// through its claim/victim loop shapes: a genuine rebalance must converge to
// the assigned shares, an all-claimant (no victim) state and an all-victim
// (no claimant) state must return immediately, and a claimant whose policy
// declines must stop after a single preemption rather than churn the victim.
func TestPreemptForFairnessTerminates(t *testing.T) {
	s, err := New(smallConfig(53), spec.Stateless(spec.NoSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	s.admit(uniformJob(0, 40, task.Exact(), 0)) // takes all 20 slots
	s.admit(uniformJob(1, 40, task.Exact(), 0)) // preempts its way to 10/10
	a, b := s.active[0], s.active[1]
	if a.running != 10 || b.running != 10 {
		t.Fatalf("admission rebalance gave %d/%d, want 10/10", a.running, b.running)
	}
	if a.res.Preempted != 10 {
		t.Fatalf("job 0 lost %d copies, want 10", a.res.Preempted)
	}
	// Skewed shares: a claims 5 more, b is 5 over. The loop must alternate
	// preempt(b) / launch(a) exactly five times and stop.
	a.declined, b.declined = false, false
	a.share, b.share = 15, 5
	s.preemptForFairness()
	if a.running != 15 || b.running != 5 {
		t.Fatalf("rebalance gave %d/%d, want 15/5", a.running, b.running)
	}
	// Both under-share: no victim exists; must return without preempting.
	before := a.res.Preempted + b.res.Preempted
	a.share, b.share = 20, 20
	s.preemptForFairness()
	if got := a.res.Preempted + b.res.Preempted; got != before {
		t.Fatalf("preempted %d copies with no over-share victim", got-before)
	}
	// Both over-share: no claimant exists; must return without preempting.
	a.share, b.share = 0, 0
	s.preemptForFairness()
	if got := a.res.Preempted + b.res.Preempted; got != before {
		t.Fatalf("preempted %d copies with no claimant", got-before)
	}
}

// TestPreemptForFairnessDecliningClaimant: when the claimant's policy finds
// nothing to launch, the loop must stop after freeing a single slot instead
// of killing more of the victim's work.
func TestPreemptForFairnessDecliningClaimant(t *testing.T) {
	s, err := New(smallConfig(54), spec.Stateless(spec.NoSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	// Job 0: 10 tasks, all running after admission (its waterfill share).
	s.admit(uniformJob(0, 10, task.Exact(), 0))
	// Job 1: takes the remaining 10 slots.
	s.admit(uniformJob(1, 40, task.Exact(), 0))
	a, b := s.active[0], s.active[1]
	if a.running != 10 || b.running != 10 {
		t.Fatalf("setup gave %d/%d running, want 10/10", a.running, b.running)
	}
	// a "claims" more than its task count can use: every task already runs,
	// so NoSpec declines. b is the victim; exactly one copy may die.
	a.declined, b.declined = false, false
	a.share, b.share = 12, 8
	before := b.res.Preempted
	s.preemptForFairness()
	if got := b.res.Preempted - before; got != 1 {
		t.Fatalf("victim lost %d copies to a declining claimant, want exactly 1", got)
	}
	if !a.declined {
		t.Fatal("claimant not marked declined")
	}
	if s.cl.FreeSlots() != 1 {
		t.Fatalf("%d slots free, want the 1 freed slot left for the next event", s.cl.FreeSlots())
	}
}

// TestPreemptedTaskRestartable: a task whose only copy was preempted must be
// relaunched later and still complete (exact bound forces it).
func TestPreemptedTaskRestartable(t *testing.T) {
	cfg := smallConfig(36)
	big := uniformJob(0, 60, task.Exact(), 0)
	burst := make([]*task.Job, 0, 6)
	burst = append(burst, big)
	for i := 1; i <= 5; i++ {
		burst = append(burst, uniformJob(i, 20, task.Exact(), 0.5))
	}
	stats := runOne(t, cfg, spec.Stateless(spec.GS{}), burst)
	for _, r := range stats.Results {
		if r.Accuracy != 1 {
			t.Fatalf("job %d incomplete after preemption churn: %v", r.JobID, r.Accuracy)
		}
	}
}

// fullScanYoungest is the victim search youngestCopy replaced: every task
// slot of the phase in ascending order and each slot's copies in list
// order, the first copy with the latest start winning.
func fullScanYoungest(js *jobState) (ti, ci int) {
	ti, ci = -1, -1
	if js.phase == nil {
		return ti, ci
	}
	tb := &js.tasks
	for i := 0; i < js.phase.n; i++ {
		for k, c := range tb.copies[i] {
			if ci == -1 || c.start > tb.copies[ti][ci].start {
				ti, ci = i, k
			}
		}
	}
	return ti, ci
}

// TestYoungestCopyMatchesFullScan holds the preemption victim to the full
// scan: at every launch attempt of a preemption-heavy run — deadline jobs
// arriving into a saturated cluster, under every policy family — every
// active job's youngest copy, searched among its running and dirtied tasks
// while its views are live, must be the copy a scan of every task slot
// picks. Copies launched at one instant tie on start, so the tie-breaks
// are exercised too.
func TestYoungestCopyMatchesFullScan(t *testing.T) {
	jobs := func() []*task.Job {
		jobs := make([]*task.Job, 0, 12)
		for i := 0; i < 12; i++ {
			n := 30
			if i%3 == 0 {
				n = 150
			}
			jobs = append(jobs, uniformJob(i, n, task.NewDeadline(20), float64(i)))
		}
		return jobs
	}
	for _, p := range diffPolicies {
		t.Run(p.name, func(t *testing.T) {
			s, err := New(smallConfig(35), p.factory(t))
			if err != nil {
				t.Fatal(err)
			}
			pending := 0 // checks of a live job with dirtied tasks waiting
			s.checkViews = func(*jobState, spec.Ctx, *spec.ViewSet, spec.Decision, bool) {
				for _, js := range s.active {
					ti, ci := youngestCopy(js)
					if wti, wci := fullScanYoungest(js); ti != wti || ci != wci {
						t.Fatalf("job %d at t=%v: youngest copy (%d, %d), full scan (%d, %d)", js.job.ID, s.eng.Now(), ti, ci, wti, wci)
					}
					if js.jv.live && len(js.jv.dirty) > 0 {
						pending++
					}
				}
			}
			stats, err := s.Run(jobs())
			if err != nil {
				t.Fatal(err)
			}
			preempted := 0
			for _, r := range stats.Results {
				preempted += r.Preempted
			}
			t.Logf("%d copies preempted, %d checks with dirtied tasks pending", preempted, pending)
			if preempted < 20 || pending < 100 {
				t.Fatalf("%d copies preempted, %d checks with dirtied tasks pending: load too light", preempted, pending)
			}
		})
	}
}
