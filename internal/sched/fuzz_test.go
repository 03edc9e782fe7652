package sched

import (
	"testing"

	"github.com/approx-analytics/grass/internal/task"
)

// FuzzIncrementalViews replays a fuzzed sequence of simulator events —
// copy launches and finishes (engine steps), fair-share preemptions,
// estimator-base bumps, and extra same-timestamp dispatch rounds —
// with every launch attempt under the differential check (incremental
// ViewSet DeepEqual a from-scratch rebuild, and PickIncremental's Decision
// identical to the reference Pick's). The op stream steers which dirtying
// transitions interleave, which is exactly the state space the
// incremental maintenance must cover.
func FuzzIncrementalViews(f *testing.F) {
	f.Add(int64(1), byte(0), []byte{0, 0, 1, 2, 3, 0, 1, 0, 2, 0, 3, 3, 0})
	f.Add(int64(2), byte(3), []byte{0, 1, 1, 1, 0, 0, 2, 2, 0, 3, 0, 1, 2, 3})
	f.Add(int64(3), byte(6), []byte{2, 2, 2, 0, 0, 0, 1, 3, 1, 3, 1, 3, 0, 0})
	f.Add(int64(42), byte(5), []byte{0, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, seed int64, polByte byte, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		p := diffPolicies[int(polByte)%len(diffPolicies)]
		s, err := New(smallConfig(seed), p.factory(t))
		if err != nil {
			t.Fatal(err)
		}
		attachDifferentialCheck(t, s)
		// A small mixed active set: all three bound kinds, one DAG job, so
		// phase transitions and deadline freezes are reachable.
		s.admit(uniformJob(0, 40, task.Exact(), 0))
		s.admit(dagJob(1, 25, task.NewError(0.2), 0))
		s.admit(uniformJob(2, 30, task.NewDeadline(15), 0))
		for _, op := range ops {
			switch op % 4 {
			case 0:
				// Fire the next event: copy completions, deadline freezes,
				// and the dispatch rounds they trigger.
				if !s.eng.Step() {
					return
				}
			case 1:
				// Estimator-base bump between events: the next refresh must
				// invalidate exactly the changed fresh-copy estimates.
				if !s.oracle {
					s.est.ObserveCompletion(0.25 + float64(op)/64)
				}
				s.dispatch()
			case 2:
				// Preempt a job's youngest copy (the fair-share preemption
				// primitive), then redispatch the freed slot.
				if len(s.active) > 0 {
					js := s.active[int(op/4)%len(s.active)]
					if s.preemptYoungest(js) {
						s.dispatch()
					}
				}
			case 3:
				// Extra dispatch at the same timestamp: a refresh with
				// nothing dirty must leave the views as they were.
				s.dispatch()
			}
		}
	})
}
