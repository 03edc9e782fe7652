package sched

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// This file is the differential harness locking the incremental candidate
// views to a from-scratch rebuild: at every launch attempt of a
// fixed-seed run, the maintained ViewSet must DeepEqual a side-effect-free
// rebuild of every incomplete task's view and the policy's PickIncremental
// must return the identical Decision its reference Pick returns on that
// rebuild — for all seven policy families.

// diffPolicies enumerates the seven policy families the harness covers.
// The oracle's factory declares ground-truth views (spec.GroundTruth).
var diffPolicies = []struct {
	name    string
	factory func(t testing.TB) spec.Factory
}{
	{"gs", func(testing.TB) spec.Factory { return spec.Stateless(spec.GS{}) }},
	{"ras", func(testing.TB) spec.Factory { return spec.Stateless(spec.RAS{}) }},
	{"late", func(testing.TB) spec.Factory { return spec.Stateless(spec.NewLATE()) }},
	{"mantri", func(testing.TB) spec.Factory { return spec.Stateless(spec.Mantri{}) }},
	{"nospec", func(testing.TB) spec.Factory { return spec.Stateless(spec.NoSpec{}) }},
	{"grass", func(t testing.TB) spec.Factory {
		f, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}},
	{"oracle", func(testing.TB) spec.Factory { return core.NewOracle() }},
}

// dagJob builds a job whose input tasks have per-index work variation and
// which carries intermediate DAG phases — so the differential run crosses
// phase transitions, not just the input phase.
func dagJob(id int, n int, bound task.Bound, arrival float64) *task.Job {
	work := make([]float64, n)
	for i := range work {
		work[i] = 0.5 + float64(i%7)*0.25
	}
	return &task.Job{
		ID:        id,
		Arrival:   arrival,
		InputWork: work,
		Phases: []task.Phase{
			{NumTasks: 4 + n/10, WorkScale: 0.8},
			{NumTasks: 2, WorkScale: 1.2},
		},
		Bound: bound,
	}
}

// diffWorkload is a fixed mixed workload in the spirit of the exp
// harness's Quick configuration: overlapping jobs of varying size under
// all three bound kinds, multi-phase DAGs, and tight-deadline arrivals
// into a busy cluster to force fair-share preemption.
func diffWorkload() []*task.Job {
	jobs := []*task.Job{}
	id := 0
	add := func(j *task.Job) { jobs = append(jobs, j); id++ }
	for i := 0; i < 12; i++ {
		size := 15 + (i%5)*30
		arrival := float64(i) * 4
		switch i % 3 {
		case 0:
			add(uniformJob(id, size, task.Exact(), arrival))
		case 1:
			add(dagJob(id, size, task.NewError(0.1), arrival))
		default:
			add(dagJob(id, size, task.NewDeadline(20), arrival))
		}
	}
	// Tight deadline jobs arriving into a saturated cluster: the fairness
	// preemption path fires, dirtying victims' tasks mid-round.
	add(uniformJob(id, 120, task.Exact(), 1.5))
	add(uniformJob(id, 60, task.NewDeadline(2), 2.0))
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	return jobs
}

// attachDifferentialCheck arms the simulator's per-attempt hooks: the
// incremental ViewSet and decision are compared against a from-scratch,
// side-effect-free rebuild and the reference Pick, and the set's
// unscheduled order must be sorted under the current keys; the records a
// pick left out of its scan are checked as attachQuietCheck checks them,
// and an attempt a decline certificate answered as attachSkipCheck checks
// it. Returns a counter of checked attempts, answered ones included.
func attachDifferentialCheck(t testing.TB, s *Simulator) *int {
	t.Helper()
	count := attachSkipCheck(t, s)
	attachQuietCheck(t, s)
	quiet := s.checkViews
	var refBuf, incBuf []spec.TaskView
	s.checkViews = func(js *jobState, ctx spec.Ctx, vs *spec.ViewSet, d spec.Decision, ok bool) {
		quiet(js, ctx, vs, d, ok)
		*count++
		now := s.eng.Now()
		refBuf = s.rebuildViews(refBuf[:0], js, now)
		if err := vs.CheckOrder(); err != nil {
			t.Fatalf("job %d at t=%v: %v", js.job.ID, now, err)
		}
		incBuf = vs.AppendCompact(incBuf[:0])
		if !reflect.DeepEqual(refBuf, incBuf) {
			t.Fatalf("job %d at t=%v: incremental views diverged from rebuild\nrebuild:     %s\nincremental: %s",
				js.job.ID, now, diffViews(refBuf, incBuf), diffViews(incBuf, refBuf))
		}
		rd, rok := js.policy.Pick(ctx, refBuf)
		if rok != ok || rd != d {
			t.Fatalf("job %d at t=%v: policy %s decisions diverged: rebuild (%+v, %v) vs incremental (%+v, %v)",
				js.job.ID, now, js.policy.Name(), rd, rok, d, ok)
		}
	}
	return count
}

// attachSkipCheck arms the simulator's hook for attempts a decline
// certificate answered: the reference Pick on a from-scratch rebuild of the
// job's views must decline, and a GRASS job must be settled — its reference
// pick must not evaluate the switch, which counts a decision in the
// factory's stats. Returns a counter of checked attempts.
func attachSkipCheck(t testing.TB, s *Simulator) *int {
	t.Helper()
	count := 0
	var refBuf []spec.TaskView
	s.checkSkip = func(js *jobState, ctx spec.Ctx) {
		count++
		now := s.eng.Now()
		refBuf = s.rebuildViews(refBuf[:0], js, now)
		grass, isGrass := s.factory.(*core.Factory)
		var before core.Stats
		if isGrass {
			before = grass.Stats()
		}
		if d, ok := js.policy.Pick(ctx, refBuf); ok {
			t.Fatalf("job %d at t=%v: a decline certificate (%+v) answered an offer the reference %s launches %+v on",
				js.job.ID, now, js.cert, js.policy.Name(), d)
		}
		if isGrass && grass.Stats() != before {
			t.Fatalf("job %d at t=%v: a decline certificate answered an offer to an unsettled GRASS job", js.job.ID, now)
		}
	}
	return &count
}

// quietCount counts quiet records by what their certificates hold.
type quietCount struct{ deadline, members, outside int }

func (c *quietCount) add(k spec.QuietKind) {
	switch k {
	case spec.QuietDeadline:
		c.deadline++
	case spec.QuietMember:
		c.members++
	case spec.QuietOutside:
		c.outside++
	}
}

func (c *quietCount) total() int { return c.deadline + c.members + c.outside }

// attachQuietCheck arms the simulator's per-attempt hook for the records a
// pick left out of its scan (spec.ViewSet.AppendQuiet): after every
// attempt that ran a pick, each is held to the from-scratch views. After
// a deadline pick each must be no speculation candidate of GS or RAS — not
// running, speculable, under the copy cap and within the deadline with a
// fresh copy beating it or saving resources. After an error-bound pick a
// quiet member must be in the reference earliest set and no candidate of
// GS or RAS at any deadline, and a quiet non-member outside the set. Every
// quiet record must hold the certificate of the attempt's bound kind. The
// error-bound classes are held to the set's evaluated views and the
// reference keys formed from them (refRanks): rebuilding every task's view
// at every attempt made TestCopyAccounting's fault matrix 20 times
// slower. Returns the counts of quiet records checked.
func attachQuietCheck(t testing.TB, s *Simulator) *quietCount {
	t.Helper()
	var n quietCount
	var quiet []int
	s.checkViews = func(js *jobState, ctx spec.Ctx, vs *spec.ViewSet, _ spec.Decision, _ bool) {
		quiet = vs.AppendQuiet(quiet[:0])
		if len(quiet) == 0 {
			return
		}
		now := s.eng.Now()
		deadline, need := ctx.Kind == task.DeadlineBound, ctx.Remaining()
		for _, i := range quiet {
			kind := vs.Quiet(i)
			n.add(kind)
			if js.tasks.completed[i] {
				t.Fatalf("job %d at t=%v: completed task %d left out of the scan", js.job.ID, now, i)
			}
			if deadline != (kind == spec.QuietDeadline) {
				t.Fatalf("job %d at t=%v: task %d left out of the scan of a %v pick holds a %v certificate",
					js.job.ID, now, i, ctx.Kind, kind)
			}
			if !deadline {
				continue
			}
			if v := s.rebuildView(js, i, now); candidate(v) && v.TNew <= ctx.RemainingTime {
				t.Fatalf("job %d at t=%v: task %d left out of the scan is a candidate under rem %v: %+v",
					js.job.ID, now, i, ctx.RemainingTime, v)
			}
		}
		if deadline {
			return
		}
		// The quiet members are in the earliest set iff the largest of
		// their keys has fewer than need keys below it, and the quiet
		// non-members outside it iff the smallest of theirs has need or
		// more: two ranks, counted in one pass over the reference keys.
		maxIn, minOut := refKey{math.Inf(-1), -1}, refKey{math.Inf(1), math.MaxInt}
		running := vs.RunningViews()
		for _, v := range running {
			switch k := refKeyOf(v); vs.Quiet(v.Index) {
			case spec.QuietMember:
				if candidate(v) {
					t.Fatalf("job %d at t=%v: quiet member %d is a candidate: %+v", js.job.ID, now, v.Index, v)
				}
				if maxIn.less(k) {
					maxIn = k
				}
			case spec.QuietOutside:
				if k.less(minOut) {
					minOut = k
				}
			}
		}
		if in, out := refRanks(js, vs, running, maxIn, minOut); in >= need || out < need {
			t.Fatalf("job %d at t=%v: the largest quiet member %+v has %d keys below it and the smallest quiet non-member %+v %d; the earliest set has %d",
				js.job.ID, now, maxIn, in, minOut, out, need)
		}
	}
	return &n
}

// refKey is a task's reference earliest-set key, written out
// independently of the spec package: a running task a copy could still
// rescue (speculable, under the copy cap) counts the smaller of t_rem and
// t_new, any other running task t_rem, and an unscheduled task t_new; ties
// go to the lower index.
type refKey struct {
	eff float64
	idx int
}

func (a refKey) less(b refKey) bool { return a.eff < b.eff || a.eff == b.eff && a.idx < b.idx }

// refKeyOf is view v's reference key.
func refKeyOf(v spec.TaskView) refKey {
	if v.Running && !(v.Speculable && v.Copies < spec.MaxCopies && !(v.TRem < v.TNew)) {
		return refKey{v.TRem, v.Index}
	}
	return refKey{v.TNew, v.Index}
}

// candidate reports whether view v is a speculation candidate of GS or
// RAS at some deadline: running, speculable, under the copy cap, and a
// fresh copy would beat it or save resources.
func candidate(v spec.TaskView) bool {
	return v.Running && v.Speculable && v.Copies < spec.MaxCopies && (v.TNew < v.TRem || v.Saving() > 0)
}

// refRanks counts the reference keys of js's incomplete tasks below a and
// below b, at the set's clock and median. The running views are the set's
// evaluated ones (RunningViews, which attachDifferentialCheck holds to the
// rebuild at every attempt), and an unscheduled task's key is its t_new:
// a rebuild or a sort of every task at every attempt made
// TestCopyAccounting's fault matrix more than ten times slower.
func refRanks(js *jobState, vs *spec.ViewSet, running []spec.TaskView, a, b refKey) (ra, rb int) {
	count := func(k refKey) {
		if k.less(a) {
			ra++
		}
		if k.less(b) {
			rb++
		}
	}
	for _, v := range running {
		count(refKeyOf(v))
	}
	for i := 0; i < js.phase.n; i++ {
		if !js.tasks.completed[i] && len(js.tasks.copies[i]) == 0 {
			count(refKey{vs.TNew(i), i})
		}
	}
	return ra, rb
}

// rebuildViews appends to dst the from-scratch views of every incomplete
// task of js's phase at time now, ascending by index.
func (s *Simulator) rebuildViews(dst []spec.TaskView, js *jobState, now float64) []spec.TaskView {
	for i := 0; i < js.phase.n; i++ {
		if !js.tasks.completed[i] {
			dst = append(dst, s.rebuildView(js, i, now))
		}
	}
	return dst
}

// rebuildView derives task ti's view from scratch at time now — the
// reference formula the ViewSet's evaluated views must equal bit for bit.
// It reads the scheduler's state and derives its keyed draws from their
// keys in its own streams, leaving the simulator untouched.
func (s *Simulator) rebuildView(js *jobState, ti int, now float64) spec.TaskView {
	tb := &js.tasks
	v := spec.TaskView{Index: ti}
	if len(tb.copies[ti]) > 0 {
		v.Running = true
		v.Copies = len(tb.copies[ti])
		bestCopy := tb.best[ti]
		trueRem := bestCopy.start + bestCopy.duration - now
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
		if s.oracle {
			v.Speculable = true
			v.TRem = trueRem
		} else {
			v.Speculable = v.Progress >= spec.MinSpecProgress
			bias := 1 + (bestCopy.tremBias-1)*(1-v.Progress)
			v.TRem = trueRem * bias
		}
	}
	key := func(ord int32, kind uint64) *dist.RNG {
		r := dist.Keyed(dist.SubSeed(s.cfg.Seed, fault.DrawTag), uint64(js.job.ID), uint64(js.phaseIdx), uint64(ti), uint64(ord), kind)
		return &r
	}
	if s.oracle {
		factors := s.inputDist
		if js.phaseIdx > 0 {
			factors = s.interDist
		}
		v.TNew = tb.work[ti] * factors.Sample(key(tb.launched[ti], keyFactor))
	} else {
		v.TNew = s.est.NormalizedMedian() * tb.work[ti] * s.est.SampleTNewBias(key(0, keyTNew))
	}
	return v
}

// countQuiet wraps the simulator's per-attempt hook to count the records
// picks left out of their scans, by what their certificates hold.
func countQuiet(s *Simulator) *quietCount {
	var n quietCount
	check := s.checkViews
	var quiet []int
	s.checkViews = func(js *jobState, ctx spec.Ctx, vs *spec.ViewSet, d spec.Decision, ok bool) {
		check(js, ctx, vs, d, ok)
		quiet = vs.AppendQuiet(quiet[:0])
		for _, i := range quiet {
			n.add(vs.Quiet(i))
		}
	}
	return &n
}

// diffViews formats the first differing view for a failure message.
func diffViews(a, b []spec.TaskView) string {
	if len(a) != len(b) {
		return fmt.Sprintf("len %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("view %d: %+v != %+v", i, a[i], b[i])
		}
	}
	return "equal"
}

// TestDifferentialViews replays the fixed-seed mixed workload under every
// policy family with the per-attempt check armed: incremental views must
// DeepEqual a from-scratch rebuild and decisions must match the reference
// Pick at every single launch attempt.
func TestDifferentialViews(t *testing.T) {
	for _, p := range diffPolicies {
		t.Run(p.name, func(t *testing.T) {
			s, err := New(smallConfig(7), p.factory(t))
			if err != nil {
				t.Fatal(err)
			}
			checked := attachDifferentialCheck(t, s)
			quiet := countQuiet(s)
			if _, err := s.Run(diffWorkload()); err != nil {
				t.Fatal(err)
			}
			if *checked < 1000 {
				t.Fatalf("only %d launch attempts checked; workload too small to exercise the incremental path", *checked)
			}
			q := *quiet
			if certifies := p.name == "gs" || p.name == "ras" || p.name == "grass"; certifies != (q.total() > 0) ||
				certifies && (q.deadline == 0 || q.members == 0 || q.outside == 0) {
				t.Fatalf("records left out of scans %+v; want some of each kind exactly for GS, RAS and GRASS", q)
			}
		})
	}
}

// TestDifferentialViewsWide arms the same per-attempt check on the default
// 200x2 cluster, where one large phase holds hundreds of slots: the
// incremental selections must match the reference with running sets an
// order of magnitude wider than smallConfig's 20 slots allow.
func TestDifferentialViewsWide(t *testing.T) {
	jobs := func() []*task.Job {
		return []*task.Job{
			uniformJob(0, 800, task.NewError(0.1), 0),
			uniformJob(1, 500, task.Exact(), 1),
			dagJob(2, 600, task.NewDeadline(12), 2),
			dagJob(3, 900, task.NewError(0.05), 3),
		}
	}
	for _, p := range diffPolicies {
		t.Run(p.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 5
			s, err := New(cfg, p.factory(t))
			if err != nil {
				t.Fatal(err)
			}
			checked := attachDifferentialCheck(t, s)
			check, widest := s.checkViews, 0
			s.checkViews = func(js *jobState, ctx spec.Ctx, vs *spec.ViewSet, d spec.Decision, ok bool) {
				widest = max(widest, len(vs.RunningViews()))
				check(js, ctx, vs, d, ok)
			}
			if _, err := s.Run(jobs()); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d launch attempts checked, widest running set %d", *checked, widest)
			if *checked < 1000 || widest < 200 {
				t.Fatalf("%d attempts checked, widest running set %d: workload too narrow for the wide-cluster check", *checked, widest)
			}
		})
	}
}
