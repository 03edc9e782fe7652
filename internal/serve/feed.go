package serve

import (
	"errors"
	"fmt"
	"time"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/task"
)

// PaceMode selects how the arrival driver times the jobs it pulls from
// Config.Source.
type PaceMode int

const (
	// TraceTimed keeps each job's own Arrival from the source — the open
	// problem's "replay the trace through the service" mode. A trace-timed
	// serve run is byte-identical to the offline replay of the same trace at
	// the same partition count.
	TraceTimed PaceMode = iota
	// Poisson discards the source's arrival times and re-times jobs on a
	// single global Poisson process of Pace.Rate jobs per virtual-time
	// unit, drawn from Pace.Seed — the classic open-loop load generator
	// shape. Deterministic for a fixed (Rate, Seed, job sequence).
	Poisson
)

func (m PaceMode) String() string {
	switch m {
	case TraceTimed:
		return "trace"
	case Poisson:
		return "poisson"
	default:
		return fmt.Sprintf("PaceMode(%d)", int(m))
	}
}

// Pace times the arrival driver. The zero value is trace-timed with no
// wall-clock pacing: jobs feed as fast as backpressure admits, and the
// virtual-time results are exactly the offline replay's.
type Pace struct {
	// Mode picks the virtual-time arrival process.
	Mode PaceMode
	// Rate is the Poisson arrival rate (jobs per virtual-time unit);
	// required > 0 when Mode is Poisson, ignored otherwise.
	Rate float64
	// Seed draws the Poisson interarrivals (independent of Config.Sim.Seed
	// so load and straggler luck decouple). Used only when Mode is Poisson.
	Seed int64
	// WallSpeed, when > 0, paces admission in REAL time: a job whose
	// virtual arrival is T units after the first job's is released
	// T/WallSpeed seconds after the driver started (WallSpeed 10 replays
	// ten virtual-time units per wall second). Wall pacing changes only
	// when jobs become available to the engines — never the virtual-time
	// results, which stay those of the unpaced run. 0 feeds flat out.
	WallSpeed float64
}

func (p Pace) validate() error {
	switch p.Mode {
	case TraceTimed:
	case Poisson:
		if !(p.Rate > 0) {
			return fmt.Errorf("serve: poisson pacing needs a positive rate, got %v", p.Rate)
		}
	default:
		return fmt.Errorf("serve: unknown pace mode %d", int(p.Mode))
	}
	if p.WallSpeed < 0 {
		return fmt.Errorf("serve: negative wall speed %v", p.WallSpeed)
	}
	return nil
}

// drive is the open-loop arrival driver: one goroutine that pulls jobs
// from Config.Source, re-times them per Pace, submits them, recycles
// finished jobs back to the source, and closes admission when the source
// ends or a bound trips. Single-goroutine by design — trace.Stream and its
// pool are not safe for concurrent use, so only this goroutine ever
// touches the source.
func (s *Server) drive() {
	var (
		admitted  int
		rng       *dist.RNG
		exp       dist.Exponential
		clock     float64 // Poisson global arrival clock
		first     = true
		firstArr  float64
		wallStart time.Time
		buf       []*task.Job
	)
	if s.cfg.Pace.Mode == Poisson {
		rng = dist.NewRNG(s.cfg.Pace.Seed)
		exp = dist.Exponential{Mu: 1 / s.cfg.Pace.Rate}
	}
	deadline := time.Time{}
	if s.cfg.For > 0 {
		deadline = time.Now().Add(s.cfg.For)
	}
	for {
		if s.ctx.Err() != nil {
			break
		}
		if s.cfg.MaxJobs > 0 && admitted >= s.cfg.MaxJobs {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		// Hand finished jobs back to the source's pool before pulling the
		// next one — the pull may be what needs the storage.
		buf = s.recycleDrain(buf)
		j, ok := s.cfg.Source.Next()
		if !ok {
			break
		}
		switch s.cfg.Pace.Mode {
		case Poisson:
			clock += exp.Sample(rng)
			j.Arrival = clock
		}
		if first {
			first = false
			firstArr = j.Arrival
			wallStart = time.Now()
		}
		if ws := s.cfg.Pace.WallSpeed; ws > 0 {
			due := wallStart.Add(time.Duration((j.Arrival - firstArr) / ws * float64(time.Second)))
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-s.ctx.Done():
					t.Stop()
				}
			}
		}
		if err := s.Submit(s.ctx, j); err != nil {
			// A closed server is a normal stop, and Wait reports cancellation
			// and engine exits first; anything else is a job the service
			// rejected, which must fail the run rather than truncate it.
			if !errors.Is(err, ErrClosed) {
				s.driveErr = fmt.Errorf("serve: source job %d: %w", j.ID, err)
			}
			// The job that never entered goes back to the pool.
			s.recyclePut(j)
			break
		}
		admitted++
	}
	// Stop admission; engines drain what was admitted. Keep recycling until
	// every partition loop exits, so a Releaser source gets each admitted
	// job back exactly once even after the driver is done submitting.
	s.Close()
	s.recycleUntilDone(buf)
}

// recycleDrain empties the hand-back lane into the source's pool. Caller
// must be the driver goroutine (sole toucher of the source).
func (s *Server) recycleDrain(buf []*task.Job) []*task.Job {
	if s.rec == nil {
		return buf
	}
	jobs := s.rec.drain(buf)
	for _, j := range jobs {
		s.rec.rel.Release(j)
	}
	return jobs
}

// recyclePut hands one job straight back (driver goroutine only).
func (s *Server) recyclePut(j *task.Job) {
	if s.rec != nil {
		s.rec.rel.Release(j)
	}
}

// recycleUntilDone keeps draining the hand-back lane until every
// partition's engine has exited, then performs a final sweep. It inherits
// the driver's exclusive claim on the source — the driver goroutine has
// stopped touching it by the time this runs.
func (s *Server) recycleUntilDone(buf []*task.Job) {
	if s.rec == nil {
		return
	}
	for _, p := range s.parts {
		for {
			select {
			case <-p.loopDone:
			case <-time.After(time.Millisecond):
				buf = s.recycleDrain(buf)
				continue
			}
			break
		}
	}
	s.recycleDrain(buf)
}
