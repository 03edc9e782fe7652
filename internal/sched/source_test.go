package sched

import (
	"reflect"
	"strings"
	"testing"

	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// sourceTestTrace is the trace the equivalence tests replay: mixed bound
// kinds on a small cluster, big enough for fair-share preemption, deadlines
// and speculation to all trigger.
func sourceTestTrace(dag int) trace.Config {
	tc := trace.DefaultConfig(trace.Facebook, trace.Hadoop, trace.MixedBound)
	tc.Jobs = 80
	tc.Slots = 80
	tc.Seed = 11
	if dag > 1 {
		tc.DAGLength = dag
	}
	return tc
}

func sourceTestConfig() Config {
	c := benchConfig(5)
	c.Cluster.Machines = 40
	return c
}

func policyUnderTest(t *testing.T, name string) spec.Factory {
	t.Helper()
	switch name {
	case "gs":
		return spec.Stateless(spec.GS{})
	case "ras":
		return spec.Stateless(spec.RAS{})
	case "late":
		return spec.Stateless(spec.NewLATE())
	case "mantri":
		return spec.Stateless(spec.Mantri{})
	case "nospec":
		return spec.Stateless(spec.NoSpec{})
	default:
		t.Fatalf("unknown test policy %q", name)
		return nil
	}
}

// TestRunSourceMatchesRun is the streaming pipeline's acceptance guarantee
// at the simulator layer: replaying a trace from a pooled stream produces
// RunStats identical — results, makespan, utilization, event count — to
// materializing the same trace and calling Run.
func TestRunSourceMatchesRun(t *testing.T) {
	for _, dag := range []int{1, 3} {
		for _, pol := range []string{"gs", "ras", "late", "mantri", "nospec"} {
			tc := sourceTestTrace(dag)
			jobs, err := trace.Generate(tc)
			if err != nil {
				t.Fatal(err)
			}
			simA, err := New(sourceTestConfig(), policyUnderTest(t, pol))
			if err != nil {
				t.Fatal(err)
			}
			want, err := simA.Run(jobs)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := trace.NewStream(tc)
			if err != nil {
				t.Fatal(err)
			}
			simB, err := New(sourceTestConfig(), policyUnderTest(t, pol))
			if err != nil {
				t.Fatal(err)
			}
			got, err := simB.RunSource(stream)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dag=%d policy=%s: streamed RunStats differ from materialized run\n got: %+v\nwant: %+v",
					dag, pol, got, want)
			}
		}
	}
}

// countingStream wraps trace.Stream to count pool traffic.
type countingStream struct {
	*trace.Stream
	released int
}

func (c *countingStream) Release(j *task.Job) {
	c.released++
	c.Stream.Release(j)
}

// TestRunSourceReleasesJobs: every finished job goes back to the stream's
// pool, so replay memory tracks the in-flight set, not the trace length.
func TestRunSourceReleasesJobs(t *testing.T) {
	tc := sourceTestTrace(1)
	stream, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStream{Stream: stream}
	sim, err := New(sourceTestConfig(), spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.RunSource(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Results) != tc.Jobs {
		t.Fatalf("got %d results, want %d", len(stats.Results), tc.Jobs)
	}
	if cs.released != tc.Jobs {
		t.Fatalf("released %d jobs back to the pool, want %d", cs.released, tc.Jobs)
	}
}

// TestOnResultStreamsResults: with a result handler installed the simulator
// retains no per-job results, and the streamed results (sorted by job ID)
// match the accumulated ones exactly.
func TestOnResultStreamsResults(t *testing.T) {
	tc := sourceTestTrace(1)
	jobs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	simA, err := New(sourceTestConfig(), spec.Stateless(spec.RAS{}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := simA.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	simB, err := New(sourceTestConfig(), spec.Stateless(spec.RAS{}))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]JobResult, 0, tc.Jobs)
	simB.OnResult(func(r JobResult) { got = append(got, r) })
	stats, err := simB.RunSource(stream)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != nil {
		t.Fatalf("simulator accumulated %d results despite handler", len(stats.Results))
	}
	if stats.Makespan != want.Makespan || stats.Events != want.Events {
		t.Fatalf("aggregates differ: makespan %v/%v events %d/%d",
			stats.Makespan, want.Makespan, stats.Events, want.Events)
	}
	byID := make([]JobResult, len(got))
	for _, r := range got {
		byID[r.JobID] = r
	}
	if !reflect.DeepEqual(byID, want.Results) {
		t.Fatal("streamed results differ from accumulated results")
	}
}

// fakeSource yields a fixed job list without validation or pooling.
type fakeSource struct {
	jobs []*task.Job
}

func (f *fakeSource) Next() (*task.Job, bool) {
	if len(f.jobs) == 0 {
		return nil, false
	}
	j := f.jobs[0]
	f.jobs = f.jobs[1:]
	return j, true
}

// TestRunSourceMatchesRunOnTiedTimestamps: real cluster logs quantize
// timestamps, so arrivals routinely tie with each other and with earlier-
// scheduled simulation events. Here job 0 is too big to finish before its
// input deadline, which fires at t=5, exactly when jobs 1 and 2 arrive.
// Job 2 is pulled only when job 1's arrival fires, after the deadline was
// scheduled; AtFirst still admits it ahead of the deadline, as if every
// arrival had been queued before the first event. Run replays through
// RunSource, so both must reproduce the golden; an arrival scheduled with
// At would admit job 2 after the deadline freeze and move every job's
// stats. The golden was re-recorded once on purpose, when straggler draws
// became keyed by (job, phase, task, copy).
func TestRunSourceMatchesRunOnTiedTimestamps(t *testing.T) {
	mkJobs := func() []*task.Job {
		return []*task.Job{
			uniformJob(0, 300, task.NewDeadline(5), 0),
			uniformJob(1, 30, task.Exact(), 5),
			uniformJob(2, 30, task.NewError(0.1), 5),
		}
	}
	want := &RunStats{
		Results: []JobResult{
			{JobID: 0, NumTasks: 300, Bin: task.Medium, Kind: task.DeadlineBound, Deadline: 5, DAGLength: 1,
				Accuracy: 0.6833333333333333, Duration: 5, InputDuration: 5,
				Launched: 389, Speculative: 179, Killed: 184, StragglerRatio: 3.679543838008461},
			{JobID: 1, NumTasks: 30, Bin: task.Small, Kind: task.ErrorBound, DAGLength: 1,
				Accuracy: 1, Duration: 19.882501051766695, InputDuration: 19.882501051766695,
				Launched: 46, Speculative: 16, Killed: 16, StragglerRatio: 19.430790450958465},
			{JobID: 2, NumTasks: 30, Bin: task.Small, Kind: task.ErrorBound, Epsilon: 0.1, DAGLength: 1,
				Accuracy: 0.9, Duration: 1.6873706792861647, InputDuration: 1.6873706792861647,
				Launched: 46, Speculative: 16, Killed: 19, StragglerRatio: 1.7259726631029015},
		},
		Makespan:          24.882501051766695,
		MeanUtilization:   0.23932470308792808,
		Events:            266,
		EstimatorAccuracy: 0.6961827623885621,
	}
	runs := map[string]func(*Simulator) (*RunStats, error){
		"Run":       func(s *Simulator) (*RunStats, error) { return s.Run(mkJobs()) },
		"RunSource": func(s *Simulator) (*RunStats, error) { return s.RunSource(&fakeSource{jobs: mkJobs()}) },
	}
	for name, run := range runs {
		sim, err := New(sourceTestConfig(), spec.Stateless(spec.GS{}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(sim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tied-timestamp stats drifted from the golden\n got: %+v\nwant: %+v", name, got, want)
		}
	}
}

// TestRunSourceRejectsUnsorted: out-of-order arrivals surface as an error
// even when discovered mid-stream.
func TestRunSourceRejectsUnsorted(t *testing.T) {
	src := &fakeSource{jobs: []*task.Job{
		uniformJob(0, 4, task.Exact(), 10),
		uniformJob(1, 4, task.Exact(), 5),
	}}
	sim, err := New(sourceTestConfig(), spec.Stateless(spec.NoSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSource(src); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("unsorted stream not rejected: %v", err)
	}
}

// TestRunSourceRejectsInvalidJob: a mid-stream invalid job stops admission
// and the error surfaces after running jobs drain.
func TestRunSourceRejectsInvalidJob(t *testing.T) {
	bad := uniformJob(1, 4, task.Exact(), 1)
	bad.InputWork = nil
	src := &fakeSource{jobs: []*task.Job{
		uniformJob(0, 4, task.Exact(), 0),
		bad,
	}}
	sim, err := New(sourceTestConfig(), spec.Stateless(spec.NoSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSource(src); err == nil || !strings.Contains(err.Error(), "no input tasks") {
		t.Fatalf("invalid mid-stream job not rejected: %v", err)
	}
	if _, err := sim.RunSource(nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// trackingSource yields a fixed job list and records pool traffic per job
// ID, so double-releases and leaks on the error path are both visible.
type trackingSource struct {
	jobs     []*task.Job
	pulled   int
	released map[int]int
}

func (s *trackingSource) Next() (*task.Job, bool) {
	if s.pulled >= len(s.jobs) {
		return nil, false
	}
	j := s.jobs[s.pulled]
	s.pulled++
	return j, true
}

func (s *trackingSource) Release(j *task.Job) {
	if s.released == nil {
		s.released = map[int]int{}
	}
	s.released[j.ID]++
}

// TestRunSourceMidStreamErrorContract is the regression test for the
// documented srcErr drain contract: when job k fails validation mid-stream,
// (a) the error surfaces with nil stats, (b) an installed OnResult handler
// has observed exactly the k admitted jobs — a strict prefix, (c) a
// Releaser source got each admitted job back exactly once, (d) the
// offending job itself was released exactly once — not zero times (leak),
// not twice (double release), and (e) nothing past the offending job was
// ever pulled.
func TestRunSourceMidStreamErrorContract(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*task.Job)
		errWant string
	}{
		{"invalid job", func(j *task.Job) { j.InputWork = nil }, "no input tasks"},
		{"unsorted arrival", func(j *task.Job) { j.Arrival = 0 }, "not sorted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const good = 5
			var jobs []*task.Job
			for i := 0; i < good; i++ {
				jobs = append(jobs, uniformJob(i, 4, task.Exact(), float64(i)))
			}
			bad := uniformJob(good, 4, task.Exact(), float64(good))
			tc.corrupt(bad)
			jobs = append(jobs, bad,
				uniformJob(good+1, 4, task.Exact(), float64(good+1)))
			src := &trackingSource{jobs: jobs}
			sim, err := New(sourceTestConfig(), spec.Stateless(spec.NoSpec{}))
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]int{}
			sim.OnResult(func(r JobResult) { seen[r.JobID]++ })
			stats, err := sim.RunSource(src)
			if err == nil || !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("error %v, want %q", err, tc.errWant)
			}
			if stats != nil {
				t.Fatal("error path returned non-nil stats")
			}
			if len(seen) != good {
				t.Fatalf("OnResult observed %d jobs, want the %d admitted", len(seen), good)
			}
			for id := 0; id < good; id++ {
				if seen[id] != 1 {
					t.Errorf("OnResult saw job %d %d times", id, seen[id])
				}
				if src.released[id] != 1 {
					t.Errorf("admitted job %d released %d times, want exactly once", id, src.released[id])
				}
			}
			if src.released[bad.ID] != 1 {
				t.Errorf("offending job released %d times, want exactly once", src.released[bad.ID])
			}
			if src.pulled != good+1 {
				t.Errorf("source pulled %d jobs — admission must stop at the offending job (want %d)", src.pulled, good+1)
			}
		})
	}
}

// TestRunSourceFirstPullErrorShortCircuits: a bad job at the very first
// pull returns immediately — nothing admitted, nothing observed, and the
// offending job still goes back to the pool exactly once.
func TestRunSourceFirstPullErrorShortCircuits(t *testing.T) {
	bad := uniformJob(0, 4, task.Exact(), 0)
	bad.InputWork = nil
	src := &trackingSource{jobs: []*task.Job{bad, uniformJob(1, 4, task.Exact(), 1)}}
	sim, err := New(sourceTestConfig(), spec.Stateless(spec.NoSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	sim.OnResult(func(JobResult) { calls++ })
	if _, err := sim.RunSource(src); err == nil {
		t.Fatal("first-pull invalid job not rejected")
	}
	if calls != 0 {
		t.Fatalf("OnResult called %d times with nothing admitted", calls)
	}
	if src.released[0] != 1 {
		t.Fatalf("offending first job released %d times, want exactly once", src.released[0])
	}
	if src.pulled != 1 {
		t.Fatalf("pulled %d jobs after a first-pull failure", src.pulled)
	}
}
