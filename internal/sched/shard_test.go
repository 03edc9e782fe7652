package sched

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/approx-analytics/grass/internal/cluster"
	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/estimate"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// This file is the sharded-execution differential harness, in the mold of
// the incremental-views harness (differential_test.go): RunSharded must be
// DeepEqual to a hand-composed sequence of plain-engine runs — one per
// partition, each seeded by ShardSeed and fed its trace.NewShardStream
// residue class, merged by MergeShardStats — for every policy family, and
// its output must be byte-identical for ANY worker count. With one
// partition the reference IS today's unsharded engine on the full trace.

// shardFactory builds a partition-seeded factory for one of the seven
// policy families of diffPolicies (stateless families ignore the seed;
// GRASS derives its perturbation stream from it, like exp.NewFactory).
func shardFactory(name string) func(seed int64) (spec.Factory, error) {
	return func(seed int64) (spec.Factory, error) {
		if name != "grass" {
			for _, p := range diffPolicies {
				if p.name == name {
					return p.factory(nopTB{}), nil
				}
			}
			return nil, fmt.Errorf("unknown test policy %q", name)
		}
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		return core.New(cfg)
	}
}

// nopTB satisfies the testing.TB parameter of diffPolicies factories that
// never fail for the stateless families.
type nopTB struct{ testing.TB }

func (nopTB) Helper()               {}
func (nopTB) Fatal(...any)          { panic("unexpected factory failure") }
func (nopTB) Fatalf(string, ...any) { panic("unexpected factory failure") }

// shardTestConfig is the simulator configuration the harness partitions:
// 30 machines so 3 partitions split it evenly and 8 partitions unevenly.
func shardTestConfig(seed int64) Config {
	return Config{
		Cluster:          cluster.Config{Machines: 30, SlotsPerMachine: 2, HeterogeneitySigma: 0.2},
		Estimator:        estimate.Config{TRemNoise: 0.4, TNewNoise: 0.15, Prior: 1},
		DurationBeta:     1.259,
		DurationCap:      30,
		TailFrac:         0.25,
		TailStart:        1.5,
		IntermediateBeta: 2.5,
		MinSpecProgress:  0.15,
		Seed:             seed,
	}
}

// shardTestTrace is the workload the harness replays: a mixed-bound trace
// sized to the partitioned cluster, with DAG jobs in a second variant.
func shardTestTrace(jobs int, seed int64, dag bool) trace.Config {
	tc := trace.DefaultConfig(trace.Facebook, trace.Hadoop, trace.MixedBound)
	tc.Jobs = jobs
	tc.Seed = seed
	tc.Slots = 60
	tc.Load = 0.7
	if dag {
		tc.DAGLength = 3
	}
	return tc
}

// composedReference runs each partition through the plain engine — no
// RunSharded machinery at all — and merges, producing the ground truth the
// sharded runner must match exactly.
func composedReference(t *testing.T, cfg Config, tc trace.Config, parts int, mk func(seed int64) (spec.Factory, error)) *RunStats {
	t.Helper()
	stats := make([]*RunStats, parts)
	for p := 0; p < parts; p++ {
		factory, err := mk(ShardSeed(cfg.Seed, p, parts))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(ShardConfig(cfg, p, parts), factory)
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewShardStream(tc, p, parts)
		if err != nil {
			t.Fatal(err)
		}
		if stats[p], err = sim.RunSource(src); err != nil {
			t.Fatal(err)
		}
	}
	if parts == 1 {
		return stats[0] // the unsharded engine's RunStats, untouched
	}
	return MergeShardStats(cfg, parts, stats)
}

// shardedRun invokes RunSharded over the same (cfg, trace, parts) cell
// with the given worker count.
func shardedRun(t *testing.T, cfg Config, tc trace.Config, parts, workers int, mk func(seed int64) (spec.Factory, error)) *RunStats {
	t.Helper()
	stats, err := RunSharded(ShardedRun{
		Config:     cfg,
		Parts:      parts,
		Workers:    workers,
		NewFactory: mk,
		NewSource:  func(p int) (Source, error) { return trace.NewShardStream(tc, p, parts) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestShardConfigReduction: one partition is the plain engine's config and
// seed, untouched; several partitions split the machines exactly and give
// every partition a distinct derived seed.
func TestShardConfigReduction(t *testing.T) {
	cfg := shardTestConfig(7)
	if got := ShardConfig(cfg, 0, 1); !reflect.DeepEqual(got, cfg) {
		t.Fatalf("ShardConfig(cfg, 0, 1) changed the config: %+v", got)
	}
	if got := ShardSeed(7, 0, 1); got != 7 {
		t.Fatalf("ShardSeed(7, 0, 1) = %d, want 7", got)
	}
	for _, parts := range []int{2, 3, 7, 8, 30} {
		total := 0
		seeds := map[int64]bool{cfg.Seed: true}
		prev := math.MaxInt
		for p := 0; p < parts; p++ {
			sub := ShardConfig(cfg, p, parts)
			if sub.Cluster.Machines < 1 {
				t.Fatalf("parts=%d: partition %d got %d machines", parts, p, sub.Cluster.Machines)
			}
			if sub.Cluster.Machines > prev {
				t.Fatalf("parts=%d: machine counts not non-increasing (remainder must go to low parts)", parts)
			}
			prev = sub.Cluster.Machines
			total += sub.Cluster.Machines
			if seeds[sub.Seed] {
				t.Fatalf("parts=%d: partition %d's seed %d collides", parts, p, sub.Seed)
			}
			seeds[sub.Seed] = true
		}
		if total != cfg.Cluster.Machines {
			t.Fatalf("parts=%d: partitions hold %d machines, want %d", parts, total, cfg.Cluster.Machines)
		}
	}
}

// TestShardedMatchesUnshardedEngine is the harness's core guarantee, run
// for every one of the seven policy families: RunSharded's RunStats are
// DeepEqual to the unsharded engine — directly on the full trace for
// Parts=1, and composed per-partition for Parts=3 — for worker counts
// 1, 2, 3 and 8. Identical stats across every worker count is exactly the
// "byte-identical for any worker count" contract: workers never touch the
// model.
func TestShardedMatchesUnshardedEngine(t *testing.T) {
	for _, p := range diffPolicies {
		t.Run(p.name, func(t *testing.T) {
			cfg := shardTestConfig(11)
			tc := shardTestTrace(60, 11, p.name == "gs") // one DAG variant is plenty
			mk := shardFactory(p.name)
			for _, parts := range []int{1, 3} {
				ref := composedReference(t, cfg, tc, parts, mk)
				for _, workers := range []int{1, 2, 3, 8} {
					got := shardedRun(t, cfg, tc, parts, workers, mk)
					if !reflect.DeepEqual(got, ref) {
						t.Fatalf("parts=%d workers=%d: sharded RunStats diverged from the composed plain engine\nsharded: %+v\nplain:   %+v",
							parts, workers, got, ref)
					}
				}
			}
		})
	}
}

// TestShardedFoldCanonicalOrder: with OnResult set, results arrive in
// ascending dense JobID order for any partition count — including
// Parts=1, whose one engine naturally completes jobs out of ID order — and
// carry exactly the values of the accumulate-mode Results.
func TestShardedFoldCanonicalOrder(t *testing.T) {
	cfg := shardTestConfig(13)
	tc := shardTestTrace(50, 13, false)
	mk := shardFactory("gs")
	for _, parts := range []int{1, 3} {
		want := shardedRun(t, cfg, tc, parts, 2, mk)
		var folded []JobResult
		got, err := RunSharded(ShardedRun{
			Config:     cfg,
			Parts:      parts,
			Workers:    2,
			NewFactory: mk,
			NewSource:  func(p int) (Source, error) { return trace.NewShardStream(tc, p, parts) },
			OnResult:   func(r JobResult) { folded = append(folded, r) },
			Jobs:       tc.Jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != 0 {
			t.Fatalf("parts=%d: fold mode still accumulated %d results", parts, len(got.Results))
		}
		if len(folded) != tc.Jobs {
			t.Fatalf("parts=%d: folded %d results, want %d", parts, len(folded), tc.Jobs)
		}
		for i, r := range folded {
			if r.JobID != i {
				t.Fatalf("parts=%d: fold position %d holds job %d — not canonical ID order", parts, i, r.JobID)
			}
			if !reflect.DeepEqual(r, want.Results[i]) {
				t.Fatalf("parts=%d: folded job %d differs from accumulate-mode result", parts, i)
			}
		}
		// The aggregates must match the accumulate-mode run exactly.
		got.Results, want.Results = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parts=%d: fold-mode aggregates diverged: %+v vs %+v", parts, got, want)
		}
	}
}

// TestShardedFoldSequentialWorkers is the regression test for the fold
// merge's no-blocking contract: with ONE worker the partitions run
// strictly sequentially, so partition 0's entire result stream lands in
// the merge buffer before the partition owning job 1 even starts. A merge
// that ever blocks a producer (the original implementation capped
// per-partition channels at 256 results) deadlocks here — the worker
// can't finish partition 0 and the merger waits for a partition that will
// never run. 900 jobs over 3 partitions puts ~300 results per partition,
// comfortably past any such cap.
func TestShardedFoldSequentialWorkers(t *testing.T) {
	cfg := shardTestConfig(19)
	tc := shardTestTrace(900, 19, false)
	next := 0
	done := make(chan error, 1)
	go func() {
		_, err := RunSharded(ShardedRun{
			Config:     cfg,
			Parts:      3,
			Workers:    1,
			NewFactory: shardFactory("nospec"),
			NewSource:  func(p int) (Source, error) { return trace.NewShardStream(tc, p, 3) },
			OnResult: func(r JobResult) {
				if r.JobID != next {
					t.Errorf("fold got job %d at position %d", r.JobID, next)
				}
				next++
			},
			Jobs: tc.Jobs,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("sequential-worker fold deadlocked")
	}
	if next != tc.Jobs {
		t.Fatalf("folded %d of %d jobs", next, tc.Jobs)
	}
}

// TestShardedWalls: per-partition wall clocks land in the caller's slice;
// their sum over the max bounds the speedup K workers can realize.
func TestShardedWalls(t *testing.T) {
	cfg := shardTestConfig(17)
	tc := shardTestTrace(40, 17, false)
	walls := make([]time.Duration, 4)
	_, err := RunSharded(ShardedRun{
		Config:     cfg,
		Parts:      4,
		Workers:    1,
		NewFactory: shardFactory("nospec"),
		NewSource:  func(p int) (Source, error) { return trace.NewShardStream(tc, p, 4) },
		Walls:      walls,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for p, w := range walls {
		if w < 0 {
			t.Fatalf("partition %d wall %v negative", p, w)
		}
		sum += w
	}
	if sum <= 0 {
		t.Fatal("no partition recorded any wall time")
	}
}

// TestRunShardedValidation: the runner rejects malformed partitioned runs
// up front, before any goroutine starts.
func TestRunShardedValidation(t *testing.T) {
	cfg := shardTestConfig(1)
	tc := shardTestTrace(10, 1, false)
	mk := shardFactory("gs")
	src := func(p int) (Source, error) { return trace.NewShardStream(tc, p, 1) }
	cases := []struct {
		name string
		run  ShardedRun
	}{
		{"zero parts", ShardedRun{Config: cfg, Parts: 0, NewFactory: mk, NewSource: src}},
		{"nil factory", ShardedRun{Config: cfg, Parts: 1, NewSource: src}},
		{"nil source", ShardedRun{Config: cfg, Parts: 1, NewFactory: mk}},
		{"parts exceed machines", ShardedRun{Config: cfg, Parts: 31, NewFactory: mk, NewSource: src}},
		{"fold without jobs", ShardedRun{Config: cfg, Parts: 1, NewFactory: mk, NewSource: src,
			OnResult: func(JobResult) {}}},
	}
	for _, c := range cases {
		if _, err := RunSharded(c.run); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	bad := cfg
	bad.DurationBeta = 0
	if _, err := RunSharded(ShardedRun{Config: bad, Parts: 2, NewFactory: mk, NewSource: src}); err == nil {
		t.Error("invalid simulator config accepted")
	}
}

// TestRunShardedErrorPropagation: a failing partition surfaces its error —
// deterministically the lowest partition index — without deadlocking the
// merge layer, in both accumulate and fold modes.
func TestRunShardedErrorPropagation(t *testing.T) {
	cfg := shardTestConfig(3)
	tc := shardTestTrace(40, 3, false)
	mk := shardFactory("gs")
	failingSource := func(failPart int) func(int) (Source, error) {
		return func(p int) (Source, error) {
			if p == failPart {
				return nil, fmt.Errorf("boom part %d", p)
			}
			return trace.NewShardStream(tc, p, 4)
		}
	}
	for _, fold := range []bool{false, true} {
		run := ShardedRun{
			Config:     cfg,
			Parts:      4,
			Workers:    4,
			NewFactory: mk,
			NewSource:  failingSource(2),
		}
		if fold {
			run.OnResult = func(JobResult) {}
			run.Jobs = tc.Jobs
		}
		_, err := RunSharded(run)
		if err == nil || err.Error() != "boom part 2" {
			t.Fatalf("fold=%v: error %v, want the failing partition's own", fold, err)
		}
	}
}

// skipSource drops one job ID from its inner source's stream.
type skipSource struct {
	Source
	skip int
}

func (s skipSource) Next() (*task.Job, bool) {
	for {
		j, ok := s.Source.Next()
		if !ok || j.ID != s.skip {
			return j, ok
		}
	}
}

// TestShardedFoldRejectsNonDenseIDs: a fold needs the sources to emit the
// dense IDs 0..Jobs-1 exactly. A gap in the IDs and an ID beyond Jobs
// must each fail the run with the merge's diagnostic, and not hang it,
// at one partition and at three.
func TestShardedFoldRejectsNonDenseIDs(t *testing.T) {
	cfg := shardTestConfig(29)
	tc := shardTestTrace(30, 29, false)
	cases := []struct {
		name, want string
		skip, jobs int
	}{
		{"gap", "without job 4's result", 4, tc.Jobs},
		{"beyond Jobs", "beyond the", -1, tc.Jobs - 1},
	}
	for _, c := range cases {
		for _, parts := range []int{1, 3} {
			folded := 0
			done := make(chan error, 1)
			go func() {
				_, err := RunSharded(ShardedRun{
					Config:     cfg,
					Parts:      parts,
					NewFactory: shardFactory("gs"),
					NewSource: func(p int) (Source, error) {
						src, err := trace.NewShardStream(tc, p, parts)
						return skipSource{Source: src, skip: c.skip}, err
					},
					OnResult: func(JobResult) { folded++ },
					Jobs:     c.jobs,
				})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s parts=%d: error %v, want one containing %q", c.name, parts, err, c.want)
				}
			case <-time.After(60 * time.Second):
				t.Fatalf("%s parts=%d: fold over non-dense IDs hung", c.name, parts)
			}
			if c.skip >= 0 && folded != c.skip {
				t.Errorf("%s parts=%d: folded %d results before the gap, want %d", c.name, parts, folded, c.skip)
			}
		}
	}
}
