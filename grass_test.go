package grass_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	grass "github.com/approx-analytics/grass"
)

// smallSim returns a fast simulator configuration for facade tests.
func smallSim(seed int64) grass.SimConfig {
	cfg := grass.DefaultSimConfig()
	cfg.Cluster.Machines = 20
	cfg.Seed = seed
	return cfg
}

func smallTrace(b grass.BoundMode, seed int64) grass.TraceConfig {
	tc := grass.DefaultTraceConfig(grass.Facebook, grass.Hadoop, b)
	tc.Jobs = 30
	tc.Slots = 40
	tc.Seed = seed
	return tc
}

func TestQuickstartFlow(t *testing.T) {
	jobs, err := grass.GenerateTrace(smallTrace(grass.DeadlineBound, 1))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := grass.SimulateJobs(smallSim(1), "grass", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Results) != 30 {
		t.Fatalf("%d results", len(stats.Results))
	}
	acc := grass.MeanAccuracy(stats.Results)
	if acc <= 0 || acc > 1 {
		t.Fatalf("mean accuracy %v", acc)
	}
}

func TestHandBuiltJobs(t *testing.T) {
	work := make([]float64, 60)
	for i := range work {
		work[i] = 1
	}
	jobs := []*grass.Job{
		{ID: 0, InputWork: work, Bound: grass.NewError(0.1)},
		{ID: 1, Arrival: 1, InputWork: work[:20], Bound: grass.Exact(),
			Phases: []grass.Phase{{NumTasks: 4, WorkScale: 1}}},
		{ID: 2, Arrival: 2, InputWork: work[:10], Bound: grass.NewDeadline(5)},
	}
	stats, err := grass.SimulateJobs(smallSim(2), "ras", jobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results[0].Accuracy < 0.89 {
		t.Fatalf("error-bound job accuracy %v", stats.Results[0].Accuracy)
	}
	if stats.Results[1].Accuracy != 1 {
		t.Fatalf("exact job accuracy %v", stats.Results[1].Accuracy)
	}
	if stats.Results[1].DAGLength != 2 {
		t.Fatal("DAG length lost")
	}
}

// TestStreamedSimulationMatchesMaterialized pins the public streaming API:
// StreamTrace+SimulateSource reproduce GenerateTrace+SimulateJobs exactly,
// and WithFold delivers the same per-job results without accumulating.
func TestStreamedSimulationMatchesMaterialized(t *testing.T) {
	tc := smallTrace(grass.MixedBound, 4)
	jobs, err := grass.GenerateTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := grass.SimulateJobs(smallSim(4), "grass", jobs)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := grass.StreamTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := grass.SimulateSource(smallSim(4), "grass", stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed stats differ from materialized:\n got: %+v\nwant: %+v", got, want)
	}

	stream2, err := grass.StreamTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	folded := make([]grass.JobResult, len(jobs))
	agg, err := grass.SimulateSource(smallSim(4), "grass", stream2, grass.WithFold(func(r grass.JobResult) {
		folded[r.JobID] = r
	}))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Results != nil {
		t.Fatal("fold variant still accumulated results")
	}
	if !reflect.DeepEqual(folded, want.Results) {
		t.Fatal("folded results differ from materialized results")
	}
}

func TestOraclePolicyAutoMode(t *testing.T) {
	jobs, _ := grass.GenerateTrace(smallTrace(grass.ErrorBound, 3))
	stats, err := grass.SimulateJobs(smallSim(3), "oracle", jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle mode leaves the estimator untouched (cold-start accuracy 0.5).
	if stats.EstimatorAccuracy != 0.5 {
		t.Fatalf("oracle run touched the estimator: %v", stats.EstimatorAccuracy)
	}
}

// TestWithFactoryOracleSeesGroundTruth: the oracle declares its own views,
// so a run that passes its factory through WithFactory is the named
// "oracle" run, not an oracle policy fed noisy estimates.
func TestWithFactoryOracleSeesGroundTruth(t *testing.T) {
	jobs, err := grass.GenerateTrace(smallTrace(grass.ErrorBound, 3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := grass.SimulateJobs(smallSim(3), "oracle", jobs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := grass.NewPolicy("oracle", 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := grass.SimulateJobs(smallSim(3), "", jobs, grass.WithFactory(f))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WithFactory(oracle) diverged from the named oracle run: estimator accuracy %v vs %v, makespan %v vs %v",
			got.EstimatorAccuracy, want.EstimatorAccuracy, got.Makespan, want.Makespan)
	}
}

// TestServeFactoryOracleSeesGroundTruth: the same holds for a service whose
// ServeConfig.NewFactory builds the oracle — its virtual-time summary is
// the named "oracle" service's.
func TestServeFactoryOracleSeesGroundTruth(t *testing.T) {
	serve := func(policy string, newFactory func(int64) (grass.PolicyFactory, error)) *grass.ServeSummary {
		t.Helper()
		src, err := grass.StreamTrace(smallTrace(grass.ErrorBound, 3))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := grass.Serve(grass.ServeConfig{Sim: smallSim(3), NewFactory: newFactory, Source: src}, policy)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := srv.Wait()
		if err != nil {
			t.Fatal(err)
		}
		sum.Wall, sum.MaxQueueDepth = 0, 0 // wall-clock observations
		return sum
	}
	want := serve("oracle", nil)
	got := serve("", func(seed int64) (grass.PolicyFactory, error) { return grass.NewPolicy("oracle", seed) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewFactory(oracle) service diverged from the named oracle service:\n got %+v\nwant %+v", got, want)
	}
}

func TestCustomGrassPolicy(t *testing.T) {
	cfg := grass.DefaultGrassConfig()
	cfg.Xi = 0.3
	cfg.Seed = 4
	f, err := grass.NewGrassPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := grass.GenerateTrace(smallTrace(grass.ErrorBound, 4))
	if _, err := grass.SimulateJobs(smallSim(4), "", jobs, grass.WithFactory(f)); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPolicy(t *testing.T) {
	jobs, _ := grass.GenerateTrace(smallTrace(grass.ErrorBound, 5))
	if _, err := grass.SimulateJobs(smallSim(5), "nope", jobs); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestMetricsHelpers(t *testing.T) {
	jobs, _ := grass.GenerateTrace(smallTrace(grass.ErrorBound, 6))
	late, err := grass.SimulateJobs(smallSim(6), "late", jobs)
	if err != nil {
		t.Fatal(err)
	}
	ras, err := grass.SimulateJobs(smallSim(6), "ras", jobs)
	if err != nil {
		t.Fatal(err)
	}
	// The helpers must agree with manual computation.
	sp := grass.SpeedupPct(late.Results, ras.Results)
	want := (grass.MeanDuration(late.Results) - grass.MeanDuration(ras.Results)) /
		grass.MeanDuration(late.Results) * 100
	if sp != want {
		t.Fatalf("speedup %v != %v", sp, want)
	}
	small := grass.FilterBin(late.Results, grass.Small)
	for _, r := range small {
		if r.Bin != grass.Small {
			t.Fatal("filter leaked other bins")
		}
	}
}

// TestSimulateTraceOptions pins the options-pattern entry point: with no
// options, and with one partition, it reproduces SimulateSource exactly;
// and at one and two partitions WithFold streams the accumulated results
// in ascending JobID order without accumulating.
func TestSimulateTraceOptions(t *testing.T) {
	tc := smallTrace(grass.MixedBound, 7)
	stream, err := grass.StreamTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := grass.SimulateSource(smallSim(7), "gs", stream)
	if err != nil {
		t.Fatal(err)
	}
	got, err := grass.SimulateTrace(smallSim(7), tc, "gs")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SimulateTrace (no options) differs from SimulateSource:\n got: %+v\nwant: %+v", got, want)
	}

	for _, parts := range []int{1, 2} {
		acc, err := grass.SimulateTrace(smallSim(7), tc, "gs", grass.WithPartitions(parts))
		if err != nil {
			t.Fatal(err)
		}
		if parts == 1 && !reflect.DeepEqual(acc, want) {
			t.Fatalf("WithPartitions(1) differs from SimulateSource:\n got: %+v\nwant: %+v", acc, want)
		}
		if len(acc.Results) != tc.Jobs {
			t.Fatalf("parts=%d: run returned %d results, want %d", parts, len(acc.Results), tc.Jobs)
		}
		// The fold runs on the merge goroutine, so it reports with Errorf.
		next := 0
		folded, err := grass.SimulateTrace(smallSim(7), tc, "gs",
			grass.WithPartitions(parts),
			grass.WithFold(func(r grass.JobResult) {
				if r.JobID != next {
					t.Errorf("parts=%d: fold got job %d at position %d — not ascending JobID order", parts, r.JobID, next)
				} else if !reflect.DeepEqual(r, acc.Results[next]) {
					t.Errorf("parts=%d: folded job %d differs from accumulated result", parts, r.JobID)
				}
				next++
			}))
		if err != nil {
			t.Fatal(err)
		}
		if next != tc.Jobs {
			t.Fatalf("parts=%d: fold saw %d jobs, want %d", parts, next, tc.Jobs)
		}
		if len(folded.Results) != 0 {
			t.Fatalf("parts=%d: WithFold still accumulated results", parts)
		}
	}

	if _, err := grass.SimulateTrace(smallSim(7), tc, "nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	bad := tc
	bad.Jobs = 0
	if _, err := grass.SimulateTrace(smallSim(7), bad, "gs"); err == nil {
		t.Fatal("invalid trace config accepted")
	}
}

// TestWithContextCancels: a pre-cancelled WithContext makes every entry
// point return context.Canceled before any job finishes — SimulateTrace at
// one and two partitions, and SimulateSource, each with and without
// WithFold.
func TestWithContextCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tc := smallTrace(grass.MixedBound, 9)
	for _, fold := range []bool{false, true} {
		seen := 0
		opts := []grass.SimOption{grass.WithContext(ctx)}
		if fold {
			opts = append(opts, grass.WithFold(func(grass.JobResult) { seen++ }))
		}
		for _, parts := range []int{1, 2} {
			_, err := grass.SimulateTrace(smallSim(9), tc, "gs", append(opts, grass.WithPartitions(parts))...)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("SimulateTrace parts=%d fold=%v: %v, want context.Canceled", parts, fold, err)
			}
		}
		stream, err := grass.StreamTrace(tc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := grass.SimulateSource(smallSim(9), "gs", stream, opts...); !errors.Is(err, context.Canceled) {
			t.Errorf("SimulateSource fold=%v: %v, want context.Canceled", fold, err)
		}
		if seen != 0 {
			t.Errorf("fold=%v: a pre-cancelled run folded %d results", fold, seen)
		}
	}
}
