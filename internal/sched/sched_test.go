package sched

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/approx-analytics/grass/internal/cluster"
	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/estimate"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// smallConfig is a fast cluster for unit tests.
func smallConfig(seed int64) Config {
	return Config{
		Cluster:      cluster.Config{Machines: 10, SlotsPerMachine: 2},
		Estimator:    estimate.Config{TRemNoise: 0.3, TNewNoise: 0.3},
		DurationBeta: 1.259,
		DurationCap:  50,
		TailFrac:     0.2,
		TailStart:    1.5,
		Seed:         seed,
	}
}

func uniformJob(id int, n int, bound task.Bound, arrival float64) *task.Job {
	work := make([]float64, n)
	for i := range work {
		work[i] = 1
	}
	return &task.Job{ID: id, Arrival: arrival, InputWork: work, Bound: bound}
}

func runOne(t *testing.T, cfg Config, f spec.Factory, jobs []*task.Job) *RunStats {
	t.Helper()
	s, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestConfigValidation(t *testing.T) {
	bad := smallConfig(1)
	bad.DurationBeta = 0
	if _, err := New(bad, spec.Stateless(spec.GS{})); err == nil {
		t.Error("zero beta accepted")
	}
	bad = smallConfig(1)
	bad.DurationCap = 1
	if _, err := New(bad, spec.Stateless(spec.GS{})); err == nil {
		t.Error("cap<=1 accepted")
	}
	if _, err := New(smallConfig(1), nil); err == nil {
		t.Error("nil factory accepted")
	}
}

// TestTailConfigValidation pins the intermediate-tail fixes: NaN tail
// parameters must not slip through the range checks (NaN compares false
// against every bound), and TailStart must be validated even when
// TailFrac == 1, because the intermediate-phase distribution always halves
// TailFrac into a body-tail mixture that uses TailStart. The old code
// accepted both configs and either simulated garbage or failed later inside
// dist with a misleading error.
func TestTailConfigValidation(t *testing.T) {
	bad := smallConfig(1)
	bad.TailFrac = math.NaN()
	if bad.Validate() == nil {
		t.Error("NaN tail fraction accepted")
	}
	bad = smallConfig(1)
	bad.TailStart = math.NaN()
	if bad.Validate() == nil {
		t.Error("NaN tail start accepted")
	}
	bad = smallConfig(1)
	bad.TailFrac = 1
	bad.TailStart = 1
	if bad.Validate() == nil {
		t.Error("TailFrac=1 with TailStart<=1 accepted; the intermediate distribution needs a valid tail start")
	}
	// A pure-Pareto input tail with a sane TailStart stays valid end to end:
	// the halved intermediate tail (0.5) must build a working mixture.
	ok := smallConfig(1)
	ok.TailFrac = 1
	if _, err := New(ok, spec.Stateless(spec.GS{})); err != nil {
		t.Errorf("TailFrac=1 with default TailStart rejected: %v", err)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExactJobCompletes(t *testing.T) {
	j := uniformJob(0, 30, task.Exact(), 0)
	stats := runOne(t, smallConfig(2), spec.Stateless(spec.NoSpec{}), []*task.Job{j})
	if len(stats.Results) != 1 {
		t.Fatalf("%d results", len(stats.Results))
	}
	r := stats.Results[0]
	if r.Accuracy != 1 {
		t.Errorf("exact job accuracy %v", r.Accuracy)
	}
	if r.Duration <= 0 || r.InputDuration <= 0 {
		t.Errorf("durations %v / %v", r.Duration, r.InputDuration)
	}
	if r.Launched != 30 || r.Speculative != 0 || r.Killed != 0 {
		t.Errorf("NoSpec launched=%d spec=%d killed=%d", r.Launched, r.Speculative, r.Killed)
	}
	if stats.Makespan <= 0 || stats.Events == 0 {
		t.Error("empty run stats")
	}
}

func TestErrorBoundStopsEarly(t *testing.T) {
	j := uniformJob(0, 20, task.NewError(0.25), 0)
	stats := runOne(t, smallConfig(3), spec.Stateless(spec.GS{}), []*task.Job{j})
	r := stats.Results[0]
	if got := r.Accuracy; math.Abs(got-0.75) > 1e-9 {
		t.Errorf("accuracy %v, want 0.75", got)
	}
}

func TestDeadlineCutsOff(t *testing.T) {
	// 200 tasks, 20 slots, tiny deadline: accuracy must be < 1 and the job
	// must still produce a result at the deadline.
	j := uniformJob(0, 200, task.NewDeadline(3), 0)
	stats := runOne(t, smallConfig(4), spec.Stateless(spec.GS{}), []*task.Job{j})
	r := stats.Results[0]
	if r.Accuracy >= 1 {
		t.Errorf("accuracy %v should be < 1 with a tight deadline", r.Accuracy)
	}
	if r.Accuracy <= 0 {
		t.Errorf("accuracy %v should be > 0", r.Accuracy)
	}
	if math.Abs(r.InputDuration-3) > 1e-9 {
		t.Errorf("input duration %v, want the 3-unit deadline", r.InputDuration)
	}
}

func TestDeadlineJobFinishingEarly(t *testing.T) {
	// Plenty of time and slots: all tasks finish before the deadline and
	// the job should not wait for it.
	j := uniformJob(0, 5, task.NewDeadline(10000), 0)
	stats := runOne(t, smallConfig(5), spec.Stateless(spec.GS{}), []*task.Job{j})
	r := stats.Results[0]
	if r.Accuracy != 1 {
		t.Errorf("accuracy %v", r.Accuracy)
	}
	if r.InputDuration >= 10000 {
		t.Error("job waited for the deadline despite finishing early")
	}
}

func TestSpeculationHappens(t *testing.T) {
	// Heavy tail + GS: speculative copies should be launched and some
	// originals killed.
	j := uniformJob(0, 200, task.Exact(), 0)
	stats := runOne(t, smallConfig(6), spec.Stateless(spec.GS{}), []*task.Job{j})
	r := stats.Results[0]
	if r.Speculative == 0 {
		t.Error("GS never speculated on a heavy-tailed workload")
	}
	if r.Killed == 0 {
		t.Error("no copy was ever killed")
	}
	if r.Launched < 200 {
		t.Errorf("launched %d < tasks", r.Launched)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []JobResult {
		jobs := []*task.Job{
			uniformJob(0, 50, task.Exact(), 0),
			uniformJob(1, 80, task.NewError(0.1), 1),
			uniformJob(2, 60, task.NewDeadline(20), 2),
		}
		return runOne(t, smallConfig(7), spec.Stateless(spec.GS{}), jobs).Results
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("result counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestFairSharingBothJobsProgress(t *testing.T) {
	// Two big jobs submitted together must both finish, and neither can
	// have monopolized the cluster (their input durations overlap).
	jobs := []*task.Job{
		uniformJob(0, 100, task.Exact(), 0),
		uniformJob(1, 100, task.Exact(), 0),
	}
	stats := runOne(t, smallConfig(8), spec.Stateless(spec.GS{}), jobs)
	if len(stats.Results) != 2 {
		t.Fatalf("%d results", len(stats.Results))
	}
	d0, d1 := stats.Results[0].InputDuration, stats.Results[1].InputDuration
	// Serial execution would give d1 ≈ 2·d0; fair sharing keeps them close.
	ratio := d1 / d0
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("input durations %v vs %v suggest no fair sharing", d0, d1)
	}
}

func TestDAGJobRunsAllPhases(t *testing.T) {
	j := uniformJob(0, 40, task.Exact(), 0)
	j.Phases = []task.Phase{{NumTasks: 8, WorkScale: 1}, {NumTasks: 4, WorkScale: 1}}
	stats := runOne(t, smallConfig(9), spec.Stateless(spec.GS{}), []*task.Job{j})
	r := stats.Results[0]
	if r.DAGLength != 3 {
		t.Errorf("DAG length %d", r.DAGLength)
	}
	if r.Duration <= r.InputDuration {
		t.Errorf("duration %v should exceed input duration %v (intermediate phases ran)", r.Duration, r.InputDuration)
	}
	if r.Accuracy != 1 {
		t.Errorf("accuracy %v", r.Accuracy)
	}
}

func TestDAGDeadlineDecomposition(t *testing.T) {
	// A deadline DAG job freezes its input phase *before* the full deadline
	// to leave room for intermediate phases (§5.2).
	j := uniformJob(0, 100, task.NewDeadline(10), 0)
	j.Phases = []task.Phase{{NumTasks: 10, WorkScale: 2}}
	stats := runOne(t, smallConfig(10), spec.Stateless(spec.GS{}), []*task.Job{j})
	r := stats.Results[0]
	if r.InputDuration >= 10 {
		t.Errorf("input phase used the whole deadline (%v); no budget left for the DAG", r.InputDuration)
	}
}

// TestOracleMode: a factory that declares ground truth (the oracle) runs on
// exact views, so its run never samples or scores the estimator.
func TestOracleMode(t *testing.T) {
	j := uniformJob(0, 50, task.Exact(), 0)
	stats := runOne(t, smallConfig(11), core.NewOracle(), []*task.Job{j})
	if stats.Results[0].Accuracy != 1 {
		t.Error("oracle run did not complete the job")
	}
	if stats.EstimatorAccuracy != 0.5 {
		t.Error("oracle mode should not touch the estimator (cold-start 0.5)")
	}
}

func TestUnsortedJobsRejected(t *testing.T) {
	s, err := New(smallConfig(12), spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*task.Job{
		uniformJob(0, 5, task.Exact(), 10),
		uniformJob(1, 5, task.Exact(), 5),
	}
	if _, err := s.Run(jobs); err == nil {
		t.Fatal("unsorted trace accepted")
	}
}

// TestInvalidJobRejected: Run fails a malformed job with an error before
// simulating anything — non-finite work scales and arrivals included, which
// once panicked in the event queue (NaN) or ran to an infinite makespan or
// a NaN duration (+Inf).
func TestInvalidJobRejected(t *testing.T) {
	dag := func(scale float64) *task.Job {
		j := uniformJob(0, 5, task.Exact(), 0)
		j.Phases = []task.Phase{{NumTasks: 2, WorkScale: scale}}
		return j
	}
	for _, c := range []struct {
		name string
		job  *task.Job
	}{
		{"no input tasks", &task.Job{ID: 0}},
		{"NaN work scale", dag(math.NaN())},
		{"+Inf work scale", dag(math.Inf(1))},
		{"+Inf arrival", uniformJob(0, 5, task.Exact(), math.Inf(1))},
	} {
		s, err := New(smallConfig(13), spec.Stateless(spec.GS{}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run([]*task.Job{c.job}); err == nil {
			t.Errorf("%s: invalid job accepted", c.name)
		}
	}
}

func TestEventLimit(t *testing.T) {
	cfg := smallConfig(14)
	cfg.MaxEvents = 10
	s, err := New(cfg, spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]*task.Job{uniformJob(0, 100, task.Exact(), 0)}); err == nil {
		t.Fatal("event limit not enforced")
	}
}

func TestStragglerRatioRealistic(t *testing.T) {
	// With β=1.259 tails the slowest task should be several times the
	// median (the paper reports 8× in production).
	j := uniformJob(0, 300, task.Exact(), 0)
	stats := runOne(t, smallConfig(15), spec.Stateless(spec.NoSpec{}), []*task.Job{j})
	r := stats.Results[0]
	if r.StragglerRatio < 2 {
		t.Errorf("straggler ratio %v too small for a heavy-tailed workload", r.StragglerRatio)
	}
}

func TestEstimatorAccuracyMeasured(t *testing.T) {
	j := uniformJob(0, 200, task.Exact(), 0)
	stats := runOne(t, smallConfig(16), spec.Stateless(spec.GS{}), []*task.Job{j})
	acc := stats.EstimatorAccuracy
	if acc <= 0.4 || acc >= 1 {
		t.Errorf("measured estimator accuracy %v out of plausible range", acc)
	}
}

func TestMeanUtilizationBounds(t *testing.T) {
	jobs := []*task.Job{
		uniformJob(0, 100, task.Exact(), 0),
		uniformJob(1, 100, task.Exact(), 0),
	}
	stats := runOne(t, smallConfig(17), spec.Stateless(spec.GS{}), jobs)
	if stats.MeanUtilization <= 0 || stats.MeanUtilization > 1 {
		t.Errorf("mean utilization %v", stats.MeanUtilization)
	}
}

func TestSpeculationBeatsNoSpecOnErrorBound(t *testing.T) {
	// Aggregate over several seeds: resource-aware speculation should finish
	// exact multi-wave jobs faster than never speculating — the paper's
	// core premise (GS would over-speculate here; that is Guideline 3).
	var rasTot, noTot float64
	for seed := int64(0); seed < 5; seed++ {
		jobs := func() []*task.Job { return []*task.Job{uniformJob(0, 120, task.Exact(), 0)} }
		ras := runOne(t, smallConfig(100+seed), spec.Stateless(spec.RAS{}), jobs())
		no := runOne(t, smallConfig(100+seed), spec.Stateless(spec.NoSpec{}), jobs())
		rasTot += ras.Results[0].InputDuration
		noTot += no.Results[0].InputDuration
	}
	if rasTot >= noTot {
		t.Errorf("RAS total %v not faster than NoSpec %v", rasTot, noTot)
	}
}

func TestResultsSortedByJobID(t *testing.T) {
	jobs := []*task.Job{
		uniformJob(0, 400, task.Exact(), 0), // big job, finishes last
		uniformJob(1, 5, task.Exact(), 0.5), // tiny job, finishes first
	}
	stats := runOne(t, smallConfig(18), spec.Stateless(spec.GS{}), jobs)
	if stats.Results[0].JobID != 0 || stats.Results[1].JobID != 1 {
		t.Fatal("results not sorted by job ID")
	}
}

func TestLATEAndMantriRunEndToEnd(t *testing.T) {
	for _, f := range []spec.Factory{spec.Stateless(spec.NewLATE()), spec.Stateless(spec.Mantri{})} {
		jobs := []*task.Job{
			uniformJob(0, 100, task.NewDeadline(30), 0),
			uniformJob(1, 100, task.NewError(0.1), 2),
		}
		stats := runOne(t, smallConfig(19), f, jobs)
		if len(stats.Results) != 2 {
			t.Fatalf("%s: %d results", f.Name(), len(stats.Results))
		}
		for _, r := range stats.Results {
			if r.Accuracy <= 0 {
				t.Errorf("%s: job %d accuracy %v", f.Name(), r.JobID, r.Accuracy)
			}
		}
	}
}

func TestDeadlineJobWithNoCapacity(t *testing.T) {
	// A deadline job that never gets a slot must still finish at its
	// deadline with zero accuracy rather than hanging the simulation.
	cfg := smallConfig(40)
	hog := uniformJob(0, 500, task.Exact(), 0)
	for i := range hog.InputWork {
		hog.InputWork[i] = 100 // occupies everything for a long time
	}
	starved := uniformJob(1, 400, task.NewDeadline(0.5), 0.1)
	for i := range starved.InputWork {
		starved.InputWork[i] = 50 // too long to finish within 0.5 anyway
	}
	stats := runOne(t, cfg, spec.Stateless(spec.NoSpec{}), []*task.Job{hog, starved})
	for _, r := range stats.Results {
		if r.JobID == 1 {
			if r.Accuracy != 0 {
				t.Fatalf("starved job accuracy %v, want 0", r.Accuracy)
			}
			if r.InputDuration > 0.5+1e-9 {
				t.Fatalf("starved job ran past its deadline: %v", r.InputDuration)
			}
		}
	}
}

func TestIntermediateEstimateLearning(t *testing.T) {
	// After several DAG jobs complete, the §5.2 intermediate estimate should
	// come from observations; verify the input-phase budget reacts: later
	// jobs of the same shape get consistent input deadlines.
	cfg := smallConfig(41)
	jobs := make([]*task.Job, 0, 6)
	for i := 0; i < 6; i++ {
		j := uniformJob(i, 40, task.NewDeadline(30), float64(i)*50)
		j.Phases = []task.Phase{{NumTasks: 8, WorkScale: 2}}
		jobs = append(jobs, j)
	}
	stats := runOne(t, cfg, spec.Stateless(spec.GS{}), jobs)
	for _, r := range stats.Results {
		if r.InputDuration >= 30 {
			t.Fatalf("job %d input phase consumed the whole deadline", r.JobID)
		}
		if r.Duration < r.InputDuration {
			t.Fatalf("job %d duration %v < input %v", r.JobID, r.Duration, r.InputDuration)
		}
	}
}

func TestGRASSIntegration(t *testing.T) {
	// End-to-end: GRASS over a mixed trace accumulates learner samples and
	// switches adaptively.
	f, err := core.New(core.Config{Xi: 0.3, Factors: core.AllFactors(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*task.Job, 0, 40)
	for i := 0; i < 40; i++ {
		jobs = append(jobs, uniformJob(i, 30+10*(i%5), task.NewError(0.1), float64(i)*3))
	}
	s, err := New(smallConfig(42), f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(jobs); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Sampled == 0 || st.Adaptive == 0 {
		t.Fatalf("no perturbation mix: %+v", st)
	}
	if st.Switched == 0 {
		t.Fatalf("no adaptive job ever switched: %+v", st)
	}
	if f.Learner().Samples(task.Small, 0)+f.Learner().Samples(task.Small, 1) == 0 {
		t.Fatal("learner collected no samples")
	}
}

// TestJobStateRecycling: finished jobs hand their runtime state — the
// jobState, its incremental ViewSet arrays and phase task blocks — back to
// the simulator's free list, and later admissions reuse it. Behavioral
// neutrality is pinned separately (goldens, the differential harnesses);
// this guards the recycling itself so the PR-5 allocation win cannot
// silently regress to per-job allocation.
func TestJobStateRecycling(t *testing.T) {
	s, err := New(smallConfig(21), spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*task.Job, 0, 8)
	for i := 0; i < 8; i++ {
		jobs = append(jobs, uniformJob(i, 12, task.Exact(), float64(i)*40))
	}
	// Sequential arrivals far apart: at most one job is ever active, so
	// every admission after the first must find a pooled jobState.
	if _, err := s.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(s.jsPool) == 0 {
		t.Fatal("no jobState returned to the pool")
	}
	if len(s.jsPool) > 1 {
		t.Fatalf("%d pooled jobStates after non-overlapping jobs — admissions are not reusing them", len(s.jsPool))
	}
	js := s.jsPool[0]
	if js.job != nil || js.policy != nil || js.phase != nil || js.deadlineEv != nil {
		t.Fatalf("pooled jobState retains references: %+v", js)
	}
	if cap(js.tasks.work) == 0 || cap(js.tasks.copies) == 0 {
		t.Fatal("pooled jobState lost its recycled task block")
	}
	if js.deadlineFn == nil {
		t.Fatal("pooled jobState lost its reusable deadline closure")
	}
}

// TestJobStatePoolBestFit: an admission takes the pooled jobState with the
// smallest task capacity that fits the job's largest phase — so a small
// job does not hold a large job's task block and ViewSet arrays — and,
// when none fits, the largest one, which has the least to grow.
func TestJobStatePoolBestFit(t *testing.T) {
	s, err := New(smallConfig(1), spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	pooled := map[int]*jobState{}
	for _, n := range []int{400, 20, 100} {
		js := &jobState{}
		js.tasks.reset(n)
		js.jv.vs.Reset(n, spec.Eval{})
		pooled[n] = js
		s.freeJobState(js)
	}
	for _, c := range []struct{ need, want int }{{20, 20}, {90, 100}, {1000, 400}} {
		js := s.takeJobState(c.need)
		if js != pooled[c.want] {
			t.Fatalf("takeJobState(%d) returned the %d-task state, want the %d-task one",
				c.need, cap(js.tasks.work), c.want)
		}
		if cap(js.tasks.work) != c.want {
			t.Fatalf("takeJobState(%d) changed the pooled capacity to %d", c.need, cap(js.tasks.work))
		}
	}
	if len(s.jsPool) != 0 {
		t.Fatalf("%d jobStates left in the pool, want 0", len(s.jsPool))
	}
}

// pickOnly hides a policy's PickIncremental, leaving only the reference
// Pick.
type pickOnly struct{ p spec.Policy }

func (w pickOnly) Name() string { return w.p.Name() }
func (w pickOnly) Pick(ctx spec.Ctx, tasks []spec.TaskView) (spec.Decision, bool) {
	return w.p.Pick(ctx, tasks)
}

// TestAdmitRequiresIncrementalPolicy: every launch decision comes from
// PickIncremental, so admitting a job whose policy has only Pick panics,
// and the message names the policy.
func TestAdmitRequiresIncrementalPolicy(t *testing.T) {
	s, err := New(smallConfig(1), spec.Stateless(pickOnly{spec.RAS{}}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "RAS") || !strings.Contains(msg, "IncrementalPolicy") {
			t.Fatalf("admit panicked with %q, want a message naming policy RAS and spec.IncrementalPolicy", msg)
		}
	}()
	s.admit(uniformJob(0, 10, task.Exact(), 0))
}
