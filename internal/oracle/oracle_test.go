package oracle

import (
	"testing"

	"github.com/approx-analytics/grass/internal/cluster"
	"github.com/approx-analytics/grass/internal/estimate"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

func TestFactoryBasics(t *testing.T) {
	f := New()
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
}

func TestSwitchesForFinalWaves(t *testing.T) {
	p := New().NewPolicy(0, 100).(*policy)
	ctx := spec.Ctx{Kind: task.ErrorBound, TargetTasks: 100, TotalTasks: 100, WaveWidth: 10}
	views := []spec.TaskView{{Index: 0, TNew: 1}}
	// 100 remaining, width 10 → 10 waves: stay RAS.
	p.Pick(ctx, views)
	if p.switched {
		t.Fatal("switched too early")
	}
	ctx.CompletedTasks = 85 // 15 left ≤ 2×10
	p.Pick(ctx, views)
	if !p.switched {
		t.Fatal("did not switch in the final two waves")
	}
}

func TestDeadlineSwitch(t *testing.T) {
	p := New().NewPolicy(0, 100).(*policy)
	views := []spec.TaskView{{Index: 0, TNew: 4}, {Index: 1, TNew: 6}}
	ctx := spec.Ctx{Kind: task.DeadlineBound, RemainingTime: 100, TargetTasks: 2, TotalTasks: 2}
	p.Pick(ctx, views)
	if p.switched {
		t.Fatal("switched with a loose deadline")
	}
	ctx.RemainingTime = 9 // ≤ 2×median(5)
	p.Pick(ctx, views)
	if !p.switched {
		t.Fatal("did not switch near the deadline")
	}
}

// End-to-end: with ground-truth views the oracle should complete an exact
// job at least as fast as blind LATE on the same seed, on average.
func TestOracleBeatsLATE(t *testing.T) {
	cfg := sched.Config{
		Cluster:          cluster.Config{Machines: 10, SlotsPerMachine: 2},
		Estimator:        estimate.Config{TRemNoise: 0.45, TNewNoise: 0.35, Prior: 1},
		DurationBeta:     1.259,
		DurationCap:      50,
		TailFrac:         0.2,
		TailStart:        1.5,
		IntermediateBeta: 2.5,
		MinSpecProgress:  0.15,
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
		s, err := sched.New(ocfg, New())
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
