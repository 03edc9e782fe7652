package sched

import (
	"fmt"
	"math"

	"github.com/approx-analytics/grass/internal/simevent"
	"github.com/approx-analytics/grass/internal/task"
)

// Source is a streaming admission source: it yields jobs one at a time in
// non-decreasing arrival order. trace.Stream implements it; so does any
// importer of a real cluster log. The simulator pulls the next job only
// when the previous one's arrival event fires, so a replay holds one
// not-yet-arrived job in memory — never the whole trace.
type Source interface {
	// Next returns the next job, or (nil, false) when the trace ends.
	Next() (*task.Job, bool)
}

// Releaser is implemented by sources that recycle finished jobs (e.g.
// trace.Stream's pool). When the admission source implements it, the
// simulator hands every job back as soon as its result is recorded, which
// keeps a replay's job memory proportional to the jobs in flight.
type Releaser interface {
	Release(*task.Job)
}

// OnResult registers fn to receive each job's result the moment the job
// finishes, instead of accumulating results in RunStats.Results. Aggregates
// (Makespan, MeanUtilization, Events, EstimatorAccuracy) are still filled
// in. This is the other half of bounded-memory replays: with a handler
// installed nothing the simulator retains grows with the trace length.
// Results arrive in completion order, not job-ID order. Must be set before
// Run/RunSource.
func (s *Simulator) OnResult(fn func(JobResult)) { s.onResult = fn }

// RunSource simulates a streamed trace to completion: each job is injected
// as an arrival event, and the next job is pulled from src only when the
// previous arrival fires. If src implements Releaser, finished jobs are
// handed back for reuse. It is the simulator's only admission path: Run
// validates a materialized trace and replays it through RunSource, so the
// results are identical to materializing the same trace and calling Run.
//
// # Mid-stream error contract
//
// Validation happens lazily, as jobs are pulled. A job that fails
// validation (or arrives out of order) stops admission: jobs already
// admitted DRAIN TO COMPLETION, and only then does RunSource return the
// error — with nil RunStats. Side effects that already happened are not
// undone and callers must expect both:
//
//   - an installed OnResult handler has observed every job admitted before
//     the failure (a strict prefix of the trace's job set, in completion
//     order), and
//   - a Releaser source has had every one of those jobs handed back,
//     exactly once. The offending job itself is also released, exactly
//     once, before the error records — it never entered the simulation,
//     so handing its storage back cannot alias live state.
//
// A job that fails validation at the very first pull short-circuits: there
// is nothing to drain, and the error returns immediately (the offending
// job is still released). Either way the simulator must not be reused
// after an error — build a fresh one; the source's pool remains valid.
func (s *Simulator) RunSource(src Source) (*RunStats, error) {
	if src == nil {
		return nil, fmt.Errorf("sched: nil job source")
	}
	s.src = src
	s.rel, _ = src.(Releaser)
	s.prevArrival = math.Inf(-1)
	// One reusable arrival closure: the pending job rides in a field, so a
	// million-job replay schedules a million arrivals without allocating a
	// million closures.
	s.arrivalFn = func(*simevent.Engine) { s.onArrival() }
	if err := s.scheduleNextArrival(); err != nil {
		return nil, err
	}
	return s.finishRun()
}

// scheduleNextArrival pulls one job and schedules its arrival. Validation
// happens lazily, as jobs are pulled — a mid-stream error stops admission
// and surfaces once running jobs drain. A job rejected here was never
// admitted, so it is handed straight back to a recycling source: without
// that release the pooled storage of every rejected job would leak for the
// rest of the run (and the job would be the only one the source never got
// back).
func (s *Simulator) scheduleNextArrival() error {
	j, ok := s.src.Next()
	if !ok {
		return nil
	}
	if err := checkJob(j, s.prevArrival); err != nil {
		if s.rel != nil {
			s.rel.Release(j)
		}
		return err
	}
	s.prevArrival = j.Arrival
	s.pendingJob = j
	// AtFirst ranks the arrival ahead of same-time simulation events that
	// were enqueued before this job was even pulled, so a job arriving at a
	// tied timestamp is admitted before that instant's completions and
	// deadlines, however late it was pulled.
	s.eng.AtFirst(j.Arrival, s.arrivalFn)
	return nil
}

// checkJob validates j and checks that it arrives no earlier than prev.
func checkJob(j *task.Job, prev float64) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Arrival < prev {
		return fmt.Errorf("sched: jobs not sorted by arrival (job %d at %v after %v)", j.ID, j.Arrival, prev)
	}
	return nil
}

// sliceSource replays a materialized trace for Run. It is not a Releaser:
// the caller owns the jobs.
type sliceSource struct{ jobs []*task.Job }

func (s *sliceSource) Next() (*task.Job, bool) {
	if len(s.jobs) == 0 {
		return nil, false
	}
	j := s.jobs[0]
	s.jobs = s.jobs[1:]
	return j, true
}

// onArrival admits the pending job and pulls the next one. Pulling before
// admission keeps the not-yet-arrived lookahead at exactly one job; the
// tie ordering against simulation events is carried by AtFirst.
func (s *Simulator) onArrival() {
	j := s.pendingJob
	s.pendingJob = nil
	if err := s.scheduleNextArrival(); err != nil && s.srcErr == nil {
		s.srcErr = err // stop admitting; drain what is already running
	}
	s.admit(j)
}

// releaseJob hands a finished job back to a recycling source.
func (s *Simulator) releaseJob(js *jobState) {
	if s.rel != nil {
		s.rel.Release(js.job)
		js.job = nil
	}
}
