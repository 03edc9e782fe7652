package core

import (
	"testing"

	"github.com/approx-analytics/grass/internal/cluster"
	"github.com/approx-analytics/grass/internal/estimate"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

func TestOracleFactory(t *testing.T) {
	var f spec.Factory = NewOracle()
	if f.Name() != "Oracle" {
		t.Fatal("name wrong")
	}
	p1, p2 := f.NewPolicy(0, 10), f.NewPolicy(1, 10)
	if p1 == p2 {
		t.Fatal("oracle policies must be per-job (they hold switch state)")
	}
	if p1.Name() != "Oracle" {
		t.Fatal("policy name wrong")
	}
	if g := p1.(*policy); !g.f.cfg.Strawman || g.sampled {
		t.Fatal("the oracle must run the strawman's static switch, never a ξ sample")
	}
	if gt, ok := f.(spec.GroundTruth); !ok || !gt.GroundTruth() {
		t.Fatal("the oracle must declare ground truth")
	}
	// A seeded sharded run must not hand the oracle learned state, and a
	// multi-epoch replay must refuse it.
	if _, ok := f.(spec.SharedLearner); ok {
		t.Fatal("the oracle must not share learned state")
	}
}

// End-to-end: with ground-truth views the oracle should complete an exact
// job at least as fast as blind LATE on the same seed, on average.
func TestOracleBeatsLATE(t *testing.T) {
	cfg := sched.Config{
		Cluster:      cluster.Config{Machines: 10, SlotsPerMachine: 2},
		Estimator:    estimate.Config{TRemNoise: 0.45, TNewNoise: 0.35},
		DurationBeta: 1.259,
		DurationCap:  50,
		TailFrac:     0.2,
		TailStart:    1.5,
	}
	job := func() []*task.Job {
		work := make([]float64, 150)
		for i := range work {
			work[i] = 1
		}
		return []*task.Job{{ID: 0, InputWork: work, Bound: task.Exact()}}
	}
	var oracleTot, lateTot float64
	for seed := int64(0); seed < 5; seed++ {
		ocfg := cfg
		ocfg.Seed = seed
		s, err := sched.New(ocfg, NewOracle())
		if err != nil {
			t.Fatal(err)
		}
		or, err := s.Run(job())
		if err != nil {
			t.Fatal(err)
		}
		lcfg := cfg
		lcfg.Seed = seed
		s2, err := sched.New(lcfg, spec.Stateless(spec.NewLATE()))
		if err != nil {
			t.Fatal(err)
		}
		lr, err := s2.Run(job())
		if err != nil {
			t.Fatal(err)
		}
		oracleTot += or.Results[0].InputDuration
		lateTot += lr.Results[0].InputDuration
	}
	if oracleTot >= lateTot {
		t.Errorf("oracle total %v not faster than LATE %v", oracleTot, lateTot)
	}
}
