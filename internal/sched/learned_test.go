package sched

import (
	"reflect"
	"testing"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// sketchGrassFactory builds a partition-seeded GRASS factory using the
// mergeable sketch learner — the configuration whose learned state folds
// across partitions.
func sketchGrassFactory(seed int64) (spec.Factory, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Learner = core.LearnerSketch
	return core.New(cfg)
}

// learnedShardedRun executes one sharded run capturing the merged learned
// state alongside the stats.
func learnedShardedRun(t *testing.T, cfg Config, tc trace.Config, parts, workers int, seed spec.LearnedState) (*RunStats, spec.LearnedState) {
	t.Helper()
	var state spec.LearnedState
	stats, err := RunSharded(ShardedRun{
		Config:     cfg,
		Parts:      parts,
		Workers:    workers,
		NewFactory: sketchGrassFactory,
		NewSource:  func(p int) (Source, error) { return trace.NewShardStream(tc, p, parts) },
		Learned:    seed,
		OnLearned:  func(s spec.LearnedState) { state = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, state
}

// TestShardedLearnedWorkerInvariance: the merged learned state, like the
// merged stats, is a pure function of the model (Config, Seed, Parts) —
// byte-identical for any worker count.
func TestShardedLearnedWorkerInvariance(t *testing.T) {
	cfg := shardTestConfig(11)
	tc := shardTestTrace(120, 23, false)
	const parts = 4
	refStats, refState := learnedShardedRun(t, cfg, tc, parts, 1, nil)
	if refState == nil {
		t.Fatal("sketch-learner run exported no learned state")
	}
	for _, workers := range []int{2, 4} {
		stats, state := learnedShardedRun(t, cfg, tc, parts, workers, nil)
		if !reflect.DeepEqual(stats, refStats) {
			t.Errorf("workers=%d changed merged stats", workers)
		}
		if !reflect.DeepEqual(state, refState) {
			t.Errorf("workers=%d changed merged learned state", workers)
		}
	}
}

// TestShardedLearnedMatchesComposed: RunSharded's merged learned state is
// DeepEqual to a hand-composed sequence of plain-engine runs — one per
// partition, states exported and folded by MergeLearnedStates in
// ascending partition order.
func TestShardedLearnedMatchesComposed(t *testing.T) {
	cfg := shardTestConfig(7)
	tc := shardTestTrace(120, 31, false)
	const parts = 3
	states := make([]spec.LearnedState, parts)
	for p := 0; p < parts; p++ {
		factory, err := sketchGrassFactory(ShardSeed(cfg.Seed, p, parts))
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
		if _, err := sim.RunSource(src); err != nil {
			t.Fatal(err)
		}
		states[p] = exportLearned(factory)
	}
	want := MergeLearnedStates(states)
	_, got := learnedShardedRun(t, cfg, tc, parts, 2, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded learned state diverges from composed plain-engine reference")
	}
}

// TestShardedLearnedSeedEpoch: seeding a run with previously merged state
// (the "next epoch") is deterministic for any worker count, and the
// epoch-2 export is a DELTA — this run's own sample jobs only, the same
// count as an unseeded run, never the seeded base re-exported (which a
// P-way merge would otherwise fold P times).
func TestShardedLearnedSeedEpoch(t *testing.T) {
	cfg := shardTestConfig(5)
	tc := shardTestTrace(120, 17, false)
	const parts = 2
	_, epoch1 := learnedShardedRun(t, cfg, tc, parts, parts, nil)
	if epoch1 == nil {
		t.Fatal("epoch 1 exported no state")
	}
	statsA, epoch2A := learnedShardedRun(t, cfg, tc, parts, 1, epoch1)
	statsB, epoch2B := learnedShardedRun(t, cfg, tc, parts, parts, epoch1)
	if !reflect.DeepEqual(statsA, statsB) || !reflect.DeepEqual(epoch2A, epoch2B) {
		t.Fatal("seeded epoch not deterministic across worker counts")
	}
	samples := func(s spec.LearnedState) int {
		l := s.(*core.SketchLearner)
		total := 0
		for _, bin := range []task.SizeBin{task.Small, task.Medium, task.Large} {
			total += l.Samples(bin, 0) + l.Samples(bin, 1)
		}
		return total
	}
	// The ξ-perturbation draws are seed-driven, so a seeded replay of the
	// same trace records the same NUMBER of sample jobs; exporting more
	// would mean the seeded base leaked into the export.
	if n1, n2 := samples(epoch1), samples(epoch2A); n2 != n1 {
		t.Errorf("epoch 2 exported %d samples, want the delta %d (seeded base must not re-export)", n2, n1)
	}
	// Seeding must not mutate the caller's state: epoch1 still matches a
	// fresh epoch-1 run.
	_, epoch1Again := learnedShardedRun(t, cfg, tc, parts, parts, nil)
	if !reflect.DeepEqual(epoch1, epoch1Again) {
		t.Fatal("seeding mutated the seeded state")
	}
}

// TestShardedLearnedPlainPath: Parts == 1, the plain engine, still
// exports state; non-mergeable learners (the default ring store) export
// nil.
func TestShardedLearnedPlainPath(t *testing.T) {
	cfg := shardTestConfig(3)
	tc := shardTestTrace(60, 13, false)
	_, state := learnedShardedRun(t, cfg, tc, 1, 1, nil)
	if state == nil {
		t.Fatal("plain-path sketch run exported no state")
	}
	var ringState spec.LearnedState = state // sentinel, must be overwritten with nil
	_, err := RunSharded(ShardedRun{
		Config:     cfg,
		Parts:      1,
		NewFactory: shardFactory("grass"),
		NewSource:  func(p int) (Source, error) { return trace.NewShardStream(tc, p, 1) },
		OnLearned:  func(s spec.LearnedState) { ringState = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ringState != nil {
		t.Fatal("ring-learner run must export nil learned state")
	}
}
