package sched

import (
	"fmt"
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
	{"gs", func(testing.TB) spec.Factory { return spec.Stateless(spec.NewGS()) }},
	{"ras", func(testing.TB) spec.Factory { return spec.Stateless(spec.NewRAS()) }},
	{"late", func(testing.TB) spec.Factory { return spec.Stateless(spec.NewLATE()) }},
	{"mantri", func(testing.TB) spec.Factory { return spec.Stateless(spec.NewMantri()) }},
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

// attachDifferentialCheck arms the simulator's per-attempt hook: the
// incremental ViewSet and decision are compared against a from-scratch,
// side-effect-free rebuild and the reference Pick, and the set's
// unscheduled order must be sorted under the current keys. Returns a
// counter of checked attempts.
func attachDifferentialCheck(t testing.TB, s *Simulator) *int {
	t.Helper()
	count := 0
	var refBuf, incBuf []spec.TaskView
	s.checkViews = func(js *jobState, ctx spec.Ctx, vs *spec.ViewSet, d spec.Decision, ok bool) {
		count++
		now := s.eng.Now()
		refBuf = refBuf[:0]
		for i := 0; i < js.phase.n; i++ {
			if js.tasks.completed[i] {
				continue
			}
			refBuf = append(refBuf, s.rebuildView(js, i, now))
		}
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
	return &count
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
			if _, err := s.Run(diffWorkload()); err != nil {
				t.Fatal(err)
			}
			if *checked < 1000 {
				t.Fatalf("only %d launch attempts checked; workload too small to exercise the incremental path", *checked)
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
