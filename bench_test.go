// Benchmarks regenerating every table and figure of the paper's evaluation.
// One benchmark per artifact; each runs the full experiment (trace
// generation + paired policy simulations + reduction) once per iteration.
//
//	go test -bench=BenchmarkFig5 -benchtime 1x
//
// regenerates Figure 5. Benchmark metrics report the headline number of
// each experiment (improvement %, ratio, …) so `go test -bench=.` doubles
// as a results summary; cmd/grass-bench prints the full tables.
//
// These are *result* benchmarks. The *performance* benchmarks of the
// simulator's dispatch hot path (BenchmarkSimulatorQuick on small jobs,
// BenchmarkLargeJobReplay on 2000-task jobs, BenchmarkDispatch, and
// BenchmarkBuildViews for the per-attempt view refresh) live in
// internal/sched; their per-event numbers are tracked in BENCH_sim.json, and
// `grass-bench -profile <prefix>` writes pprof profiles for digging into
// regressions.
package grass_test

import (
	"testing"

	"github.com/approx-analytics/grass/internal/exp"
)

// benchCfg is the reduced experiment size used for benchmarks: one seed and
// a shorter trace keep `go test -bench=.` tractable; cmd/grass-bench -full
// produces the EXPERIMENTS.md numbers. Workers = 0 fans each experiment's
// (policy, seed) simulations out across every core; the harness guarantees
// byte-identical tables for any worker count, so parallelism changes only
// the wall clock, never the reported metrics.
var benchCfg = func() exp.Config {
	c := exp.Quick()
	c.Jobs = 80
	c.Seeds = []int64{1}
	c.Workers = 0
	return c
}()

// runExperiment executes one experiment per iteration and reports the value
// at (row, col) of its table as a benchmark metric.
func runExperiment(b *testing.B, run func(exp.Config) (*exp.Table, error), metric string, row, col int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := run(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if metric != "" && row < len(t.Rows) && col < len(t.Rows[row].Values) {
			b.ReportMetric(t.Rows[row].Values[col], metric)
		}
	}
}

// BenchmarkTable1TraceDetails regenerates Table 1 (trace details); the
// metric is the Facebook trace's mean tasks per job.
func BenchmarkTable1TraceDetails(b *testing.B) {
	runExperiment(b, exp.Table1, "meanTasks", 0, 2)
}

// BenchmarkFig3HillPlot regenerates Figure 3; the metric is the Hill
// estimate of β at the deepest tail point (paper: 1.259).
func BenchmarkFig3HillPlot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig3Hill(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(last.Values[1], "beta")
	}
}

// BenchmarkFig4ReactivePolicies regenerates Figure 4; the metric is the
// worst normalized response-time ratio across the ω grid for 5-wave jobs.
func BenchmarkFig4ReactivePolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig4Reactive()
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range t.Rows {
			if v := r.Values[4]; v > worst {
				worst = v
			}
		}
		b.ReportMetric(worst, "worst-ratio-5w")
	}
}

// BenchmarkPotentialGains regenerates §2.3's headroom study; the metric is
// the oracle's deadline-accuracy gain over LATE on the Facebook workload.
func BenchmarkPotentialGains(b *testing.B) {
	runExperiment(b, exp.PotentialGains, "fb-dl-%", 0, 0)
}

// BenchmarkFig5DeadlineAccuracy regenerates Figure 5; the metric is the
// overall FB/Hadoop accuracy improvement over LATE.
func BenchmarkFig5DeadlineAccuracy(b *testing.B) {
	runExperiment(b, exp.Fig5Deadline, "fb-had-%", 3, 0)
}

// BenchmarkFig6BoundBins regenerates Figure 6; the metric is the gain in
// the tightest deadline bin (2–5%).
func BenchmarkFig6BoundBins(b *testing.B) {
	runExperiment(b, exp.Fig6Bounds, "tight-dl-%", 0, 0)
}

// BenchmarkFig7ErrorSpeedup regenerates Figure 7; the metric is the overall
// FB/Hadoop speedup over LATE.
func BenchmarkFig7ErrorSpeedup(b *testing.B) {
	runExperiment(b, exp.Fig7Error, "fb-had-%", 3, 0)
}

// BenchmarkFig8Optimality regenerates Figure 8; the metric is the gap
// between GRASS's and the oracle's overall deadline gains (small = GRASS is
// near-optimal).
func BenchmarkFig8Optimality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig8Optimality(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		all := t.Rows[len(t.Rows)-1]
		b.ReportMetric(all.Values[1]-all.Values[0], "gap-to-optimal")
	}
}

// BenchmarkFig9DAG regenerates Figure 9; the metric is the FB deadline gain
// at DAG length 2.
func BenchmarkFig9DAG(b *testing.B) {
	runExperiment(b, exp.Fig9DAG, "dag2-%", 0, 0)
}

// BenchmarkFig10SwitchingDeadline regenerates Figure 10; the metric is
// GRASS's overall Hadoop gain.
func BenchmarkFig10SwitchingDeadline(b *testing.B) {
	runExperiment(b, exp.Fig10SwitchingDeadline, "grass-%", 3, 2)
}

// BenchmarkFig11SwitchingError regenerates Figure 11; the metric is GRASS's
// overall Hadoop gain.
func BenchmarkFig11SwitchingError(b *testing.B) {
	runExperiment(b, exp.Fig11SwitchingError, "grass-%", 3, 2)
}

// BenchmarkFig12Strawman regenerates Figure 12; the metric is GRASS's
// overall deadline gain minus the strawman's.
func BenchmarkFig12Strawman(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig12Strawman(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		all := t.Rows[len(t.Rows)-1]
		b.ReportMetric(all.Values[1]-all.Values[0], "learn-vs-straw")
	}
}

// BenchmarkFig13FactorsDeadline regenerates Figure 13; the metric is the
// full three-factor design's overall Hadoop gain.
func BenchmarkFig13FactorsDeadline(b *testing.B) {
	runExperiment(b, exp.Fig13FactorsDeadline, "all3-%", 3, 3)
}

// BenchmarkFig14FactorsError regenerates Figure 14; same metric for
// error-bound jobs.
func BenchmarkFig14FactorsError(b *testing.B) {
	runExperiment(b, exp.Fig14FactorsError, "all3-%", 3, 3)
}

// BenchmarkFig15Perturbation regenerates Figure 15; the metric is the FB
// deadline gain at the paper's ξ = 15%.
func BenchmarkFig15Perturbation(b *testing.B) {
	runExperiment(b, exp.Fig15Perturbation, "xi15-%", 3, 0)
}

// BenchmarkExactJobs regenerates §6.2.2's exact-computation speedup; the
// metric is the Facebook speedup over LATE.
func BenchmarkExactJobs(b *testing.B) {
	runExperiment(b, exp.ExactJobs, "fb-%", 0, 0)
}

// BenchmarkTheorem1 regenerates the Theorem 1 table; the metric is the
// early-wave copy count for β = 1.259 (σ = 2/β ≈ 1.59).
func BenchmarkTheorem1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Theorem1Table()
		b.ReportMetric(t.Rows[0].Values[0], "sigma")
	}
}

// BenchmarkAblationTail regenerates the straggler-tail ablation; the metric
// is the heavy-tail speedup minus the light-tail speedup (Guideline 1 says
// it should be large and positive).
func BenchmarkAblationTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationTail(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Rows[0].Values[0]-t.Rows[1].Values[0], "tail-delta-%")
	}
}

// BenchmarkAblationEstimation regenerates the estimation-noise ablation;
// the metric is GRASS's gain under default noise.
func BenchmarkAblationEstimation(b *testing.B) {
	runExperiment(b, exp.AblationEstimation, "gain-%", 0, 0)
}

// BenchmarkHarnessWorkers measures the experiment harness's parallel
// fan-out: the same PotentialGains experiment (4 scenarios × 3 policies ×
// 2 seeds = 24 simulations) with a single worker versus one worker per
// core. The tables produced are byte-identical; only wall clock differs.
func BenchmarkHarnessWorkers(b *testing.B) {
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"allcores", 0}} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := exp.Quick()
			cfg.Jobs = 80
			cfg.Workers = bench.workers
			for i := 0; i < b.N; i++ {
				if _, err := exp.PotentialGains(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
