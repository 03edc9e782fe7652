package exp

import (
	"math"
	"testing"

	"github.com/approx-analytics/grass/internal/metrics"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/trace"
)

// Golden headline metrics for the fixed-seed Quick() configuration
// (Facebook/Hadoop, GRASS vs LATE). The harness is deterministic — every
// run rebuilds its RNG tree from the run seed — so on one platform these
// values are exact, not statistical. The tolerance below is loose only to
// absorb cross-architecture float differences (e.g. FMA contraction on
// arm64); it is still far below any behavioural change. If a refactor
// shifts them past it, that refactor changed simulation behaviour and must
// say so explicitly (regenerate with
// `go test -run TestGoldenHeadlineMetrics -v` and copy the logged values).
//
// History of deliberate regenerations:
//   - PR 2: the LATE percentile-boundary/stalled-sentinel bugfix changed the
//     LATE baseline's speculation decisions (it no longer speculates healthy
//     tasks whose progress rates tie at the threshold), which moves both
//     GRASS-vs-LATE headline numbers. GS/RAS/GRASS/Mantri/NoSpec/oracle
//     results were verified hash-identical across the PR 2 dispatch-path
//     refactor; only the LATE change shifted these values.
//   - PR 4 (no regeneration): the incremental candidate views replaced the
//     per-attempt rebuild of every task's view as the default dispatch
//     path, and these values stayed byte-identical — the per-attempt
//     differential harness in internal/sched is what locks the views to a
//     rebuild. The rebuild walk has since been deleted, for every phase
//     size, with these values still unchanged.
const (
	goldenDeadlineAccImprovementPct = 11.933948419674
	goldenErrorSpeedupPct           = 15.873170564905
	goldenTolerance                 = 1e-6
)

// TestGoldenHeadlineMetrics pins the paper's two headline numbers for a
// Quick() run: deadline-bound accuracy improvement and error-bound speedup
// of GRASS over LATE (§6.2's 47%/38% at full scale; the quick config is
// smaller, so the exact values differ — what matters here is that they
// never drift silently).
func TestGoldenHeadlineMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full Quick() simulation")
	}
	improvement := func(b trace.BoundMode, metric func(base, treat []sched.JobResult) float64) float64 {
		sets, err := Quick().runScenarios([]scenario{
			hadoop(trace.Facebook, b, []policySpec{named("late"), named("grass")})})
		if err != nil {
			t.Fatal(err)
		}
		return sets[0].improvement("late", "grass", metric, nil)
	}
	acc := improvement(trace.DeadlineBound, metrics.AccuracyImprovementPct)
	spd := improvement(trace.ErrorBound, metrics.SpeedupPct)
	t.Logf("deadline accuracy improvement %% = %.12f", acc)
	t.Logf("error-bound speedup %% = %.12f", spd)
	if math.Abs(acc-goldenDeadlineAccImprovementPct) > goldenTolerance {
		t.Errorf("deadline accuracy improvement %.12f drifted from golden %.12f",
			acc, float64(goldenDeadlineAccImprovementPct))
	}
	if math.Abs(spd-goldenErrorSpeedupPct) > goldenTolerance {
		t.Errorf("error-bound speedup %.12f drifted from golden %.12f",
			spd, float64(goldenErrorSpeedupPct))
	}
	// Direction sanity: GRASS should beat LATE on both axes at Quick()
	// scale, mirroring the paper's headline claims.
	if acc <= 0 {
		t.Errorf("GRASS did not improve deadline accuracy over LATE: %v%%", acc)
	}
	if spd <= 0 {
		t.Errorf("GRASS did not speed up error-bound jobs over LATE: %v%%", spd)
	}
}
