package sched

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/approx-analytics/grass/internal/cluster"
	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/estimate"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// benchConfig is the cluster used by the dispatch benchmarks: big enough for
// real multi-job fair sharing, small enough that one full simulation is a
// sensible benchmark iteration.
func benchConfig(seed int64) Config {
	return Config{
		Cluster:      cluster.Config{Machines: 40, SlotsPerMachine: 2, HeterogeneitySigma: 0.2},
		Estimator:    estimate.Config{TRemNoise: 0.4, TNewNoise: 0.15},
		DurationBeta: 1.259,
		DurationCap:  30,
		TailFrac:     0.25,
		TailStart:    1.5,
		Seed:         seed,
	}
}

// benchJobs builds a deterministic mixed workload: overlapping jobs of
// varying size under all three bound kinds, so the dispatch path sees the
// multi-job share computation, speculation, deadlines and early exits.
func benchJobs(n int) []*task.Job {
	jobs := make([]*task.Job, 0, n)
	for i := 0; i < n; i++ {
		size := 20 + (i%8)*25
		var bound task.Bound
		switch i % 3 {
		case 0:
			bound = task.Exact()
		case 1:
			bound = task.NewError(0.1)
		default:
			bound = task.NewDeadline(25)
		}
		jobs = append(jobs, uniformJob(i, size, bound, float64(i)*2.5))
	}
	return jobs
}

// runSimBench runs full simulations of the bench workload under one policy
// and reports per-event wall clock, per-event heap allocations and
// task-view touches per launch attempt — the numbers BENCH_sim.json tracks
// across PRs. Run replays the slice through RunSource, the streaming
// admission path every replay takes.
func runSimBench(b *testing.B, factory func() spec.Factory) {
	b.Helper()
	jobs := benchJobs(60)
	var events, allocs, touches, attempts uint64
	var nanos int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(benchConfig(1), factory())
		if err != nil {
			b.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		t0 := time.Now()
		stats, err := s.Run(jobs)
		nanos += time.Since(t0).Nanoseconds()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		b.StartTimer()
		if err != nil {
			b.Fatal(err)
		}
		events += stats.Events
		allocs += m1.Mallocs - m0.Mallocs
		to, _, at := s.TouchStats()
		touches += to
		attempts += at
	}
	if events > 0 {
		b.ReportMetric(float64(allocs)/float64(events), "allocs/event")
		b.ReportMetric(float64(nanos)/float64(events), "ns/event")
	}
	if attempts > 0 {
		b.ReportMetric(float64(touches)/float64(attempts), "touches/attempt")
	}
}

// BenchmarkSimulatorQuick is the macro benchmark of the dispatch hot path:
// one iteration simulates the full mixed workload end to end. The policy
// sub-benchmarks cover the paper's main contenders; "late" additionally
// exercises the percentile machinery of the LATE baseline. The workload's
// jobs have 20–195 tasks, so this is the small-job end of the incremental
// views (BenchmarkLargeJobReplay is the large-job end).
func BenchmarkSimulatorQuick(b *testing.B) {
	b.Run("gs", func(b *testing.B) {
		runSimBench(b, func() spec.Factory { return spec.Stateless(spec.NewGS()) })
	})
	b.Run("ras", func(b *testing.B) {
		runSimBench(b, func() spec.Factory { return spec.Stateless(spec.NewRAS()) })
	})
	b.Run("late", func(b *testing.B) {
		runSimBench(b, func() spec.Factory { return spec.Stateless(spec.NewLATE()) })
	})
	// The learning policy itself, under both learner stores. Record and
	// Aggregate ride the job lifecycle (sample completions, switch-point
	// evaluations), not the per-event hot path, so both variants should
	// track the stateless baselines; the gap between them is the price of
	// mergeable (partition-invariant) learning.
	b.Run("grass", func(b *testing.B) {
		runSimBench(b, func() spec.Factory { return benchGrassFactory(core.LearnerRing) })
	})
	b.Run("grass-sketch", func(b *testing.B) {
		runSimBench(b, func() spec.Factory { return benchGrassFactory(core.LearnerSketch) })
	})
	// The oracle: the strawman's RAS→GS switch on ground-truth views.
	b.Run("oracle", func(b *testing.B) {
		runSimBench(b, func() spec.Factory { return core.NewOracle() })
	})
}

// BenchmarkSimulatorFaults prices the fault-injection path: the same full
// mixed-workload simulation as BenchmarkSimulatorQuick, off versus under the
// rack-storm scenario, for the cheapest policy (nospec) and the learning one
// (grass). The "off" variants must match the BenchmarkSimulatorQuick
// baselines — faults disabled means no injector is even constructed, so the
// hot path pays only a nil check (scripts/perfwall.sh walls the byte-level
// half of that claim; this benchmark tracks the per-event cost). The storm
// variants price an active schedule: extra AtLast events, slowdown-factor
// rewrites and the respeculation they trigger.
func BenchmarkSimulatorFaults(b *testing.B) {
	storm := func() fault.Config {
		fc, err := fault.Scenario("rack-storm")
		if err != nil {
			b.Fatal(err)
		}
		return fc
	}
	run := func(b *testing.B, fc fault.Config, factory func() spec.Factory) {
		b.Helper()
		jobs := benchJobs(60)
		var events, allocs uint64
		var nanos int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := benchConfig(1)
			cfg.Faults = fc
			s, err := New(cfg, factory())
			if err != nil {
				b.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.StartTimer()
			t0 := time.Now()
			stats, err := s.Run(jobs)
			nanos += time.Since(t0).Nanoseconds()
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.StartTimer()
			if err != nil {
				b.Fatal(err)
			}
			if fc.Enabled() && stats.Faults.Storms == 0 {
				b.Fatal("storm scenario fired no storms")
			}
			events += stats.Events
			allocs += m1.Mallocs - m0.Mallocs
		}
		if events > 0 {
			b.ReportMetric(float64(allocs)/float64(events), "allocs/event")
			b.ReportMetric(float64(nanos)/float64(events), "ns/event")
		}
	}
	b.Run("nospec-off", func(b *testing.B) {
		run(b, fault.Config{}, func() spec.Factory { return spec.Stateless(spec.NoSpec{}) })
	})
	b.Run("nospec-storm", func(b *testing.B) {
		run(b, storm(), func() spec.Factory { return spec.Stateless(spec.NoSpec{}) })
	})
	b.Run("grass-off", func(b *testing.B) {
		run(b, fault.Config{}, func() spec.Factory { return benchGrassFactory(core.LearnerRing) })
	})
	b.Run("grass-storm", func(b *testing.B) {
		run(b, storm(), func() spec.Factory { return benchGrassFactory(core.LearnerRing) })
	})
}

// benchGrassFactory builds a GRASS factory for the bench workload with the
// given learner implementation.
func benchGrassFactory(k core.LearnerKind) spec.Factory {
	cfg := core.DefaultConfig()
	cfg.Seed = 7
	cfg.Learner = k
	f, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// BenchmarkDispatch is the micro benchmark of one dispatch round: the cluster
// is saturated by evenly matched jobs, so dispatch computes the fair-share
// table and scans for an underserved job but launches nothing — isolating
// the round bookkeeping that has been incremental and allocation-free
// since PR 2. (Launch-attempt view costs are covered by BenchmarkBuildViews
// and BenchmarkLargeJobReplay, which time the incremental refresh: a
// saturated round never reaches tryLaunch.)
func BenchmarkDispatch(b *testing.B) {
	for _, njobs := range []int{4, 16, 64} {
		b.Run(map[int]string{4: "jobs=4", 16: "jobs=16", 64: "jobs=64"}[njobs], func(b *testing.B) {
			s, err := New(benchConfig(1), spec.Stateless(spec.NoSpec{}))
			if err != nil {
				b.Fatal(err)
			}
			// Admit njobs oversized jobs at t=0: the launch loop inside admit
			// saturates the cluster and every job ends at exactly its share.
			for i := 0; i < njobs; i++ {
				s.admit(uniformJob(i, 400, task.Exact(), 0))
			}
			if s.cl.FreeSlots() != 0 {
				b.Fatalf("cluster not saturated: %d free", s.cl.FreeSlots())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.dispatch()
			}
		})
	}
}

// BenchmarkLargeJobReplay is the large-job replay profile: a handful of
// overlapping 2000-task jobs simulated end to end under GS. An attempt
// re-derives only the records an event dirtied and evaluates the running
// views once, not the whole job, so touches/attempt (which BENCH_sim.json
// records) stays far below the 2000 views a from-scratch rebuild would
// derive per attempt; rechecks/attempt counts the near-tied neighbour
// pairs median moves recheck.
func BenchmarkLargeJobReplay(b *testing.B) {
	jobs := func() []*task.Job {
		return []*task.Job{
			uniformJob(0, 2000, task.Exact(), 0),
			uniformJob(1, 2000, task.NewError(0.1), 5),
			uniformJob(2, 2000, task.NewError(0.05), 10),
			uniformJob(3, 2000, task.Exact(), 15),
		}
	}
	run := func(b *testing.B, factory func() spec.Factory) {
		b.Helper()
		var touches, rechecks, attempts, events uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := New(benchConfig(1), factory())
			if err != nil {
				b.Fatal(err)
			}
			js := jobs()
			b.StartTimer()
			stats, err := s.Run(js)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			to, re, at := s.TouchStats()
			touches += to
			rechecks += re
			attempts += at
			events += stats.Events
			b.StartTimer()
		}
		if attempts > 0 {
			b.ReportMetric(float64(touches)/float64(attempts), "touches/attempt")
			b.ReportMetric(float64(rechecks)/float64(attempts), "rechecks/attempt")
		}
		if events > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		}
	}
	b.Run("incremental", func(b *testing.B) {
		run(b, func() spec.Factory { return spec.Stateless(spec.NewGS()) })
	})
}

// BenchmarkShardedReplay is the shard-scaling benchmark: a mixed-bound
// streamed trace partitioned 4 ways (the model is FIXED across
// sub-benchmarks — every workers= variant computes byte-identical
// results) and executed with 1, 2 and 4 worker goroutines. On a
// multi-core machine ns/op falls toward max(partition wall); the
// "balance" metric (Σ partition walls / max partition wall) is the
// machine-independent ceiling on that speedup — ≥2.5 at 4 partitions is
// the scaling sanity floor scripts/perfwall.sh walls, and the figure that
// bounds what -partitions 4 buys on the 1M-job replay (BENCH_sim.json
// PR-5).
func BenchmarkShardedReplay(b *testing.B) {
	const parts = 4
	cfg := benchConfig(1)
	tc := trace.DefaultConfig(trace.Facebook, trace.Hadoop, trace.MixedBound)
	tc.Jobs = 2000
	tc.Seed = 1
	tc.Slots = cfg.Cluster.Machines * cfg.Cluster.SlotsPerMachine
	tc.Load = 0.7
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var events uint64
			var sumWall, maxWallSum time.Duration
			walls := make([]time.Duration, parts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats, err := RunSharded(ShardedRun{
					Config:  cfg,
					Parts:   parts,
					Workers: workers,
					NewFactory: func(int64) (spec.Factory, error) {
						return spec.Stateless(spec.NewGS()), nil
					},
					NewSource: func(p int) (Source, error) { return trace.NewShardStream(tc, p, parts) },
					Walls:     walls,
				})
				if err != nil {
					b.Fatal(err)
				}
				events += stats.Events
				var max time.Duration
				for _, w := range walls {
					sumWall += w
					if w > max {
						max = w
					}
				}
				maxWallSum += max
			}
			if events > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			}
			if maxWallSum > 0 {
				b.ReportMetric(float64(sumWall)/float64(maxWallSum), "balance")
			}
		})
	}
}

// BenchmarkBuildViews measures the per-launch-attempt view cost for one
// mid-flight 300-task job: the refresh re-derives nothing (nothing is
// dirty between attempts at one timestamp — the steady state of a
// dispatch round), and the running views are evaluated once, as a
// policy's first read does.
func BenchmarkBuildViews(b *testing.B) {
	setup := func(b *testing.B) (*Simulator, *jobState) {
		s, err := New(benchConfig(1), spec.Stateless(spec.NoSpec{}))
		if err != nil {
			b.Fatal(err)
		}
		s.admit(uniformJob(0, 300, task.Exact(), 0))
		return s, s.active[0]
	}
	b.Run("incremental", func(b *testing.B) {
		s, js := setup(b)
		s.refreshViews(js).RunningViews() // build once; iterations measure the steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.refreshViews(js).RunningViews()
		}
	})
}
