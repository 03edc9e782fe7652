package sched

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/trace"
)

// TestSetContextCancelStopsRun: a context cancelled mid-run stops the
// event loop between batches and Run returns ctx.Err(); a pre-cancelled
// context stops it before the first event fires.
func TestSetContextCancelStopsRun(t *testing.T) {
	tc := sourceTestTrace(1)
	jobs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	sim, err := New(sourceTestConfig(), spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetContext(pre)
	if _, err := sim.Run(jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: %v, want context.Canceled", err)
	}

	// Mid-run: cancel from inside an OnResult handler — the handler runs on
	// the simulator goroutine, so the very next periodic check (and the
	// post-drain re-check) must observe it deterministically.
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	sim2, err := New(sourceTestConfig(), spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	sim2.SetContext(ctx)
	finished := 0
	sim2.OnResult(func(JobResult) {
		finished++
		if finished == 3 {
			cancelMid()
		}
	})
	if _, err := sim2.Run(jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: %v, want context.Canceled", err)
	}
	if finished >= tc.Jobs {
		t.Fatalf("cancel did not stop the run: all %d jobs finished", finished)
	}
}

// TestCancelLeavesFreshRunsIntact: a cancelled run abandons its pooled
// state consistently — a FRESH simulator over the same trace afterwards
// produces exactly the results of a never-cancelled run.
func TestCancelLeavesFreshRunsIntact(t *testing.T) {
	tc := sourceTestTrace(1)
	want := func() *RunStats {
		sim, err := New(sourceTestConfig(), spec.Stateless(spec.GS{}))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := trace.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.RunSource(stream)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}()

	// Cancel a streamed run partway through, reusing the stream type (its
	// pool must stay valid after abandonment).
	ctx, cancel := context.WithCancel(context.Background())
	sim, err := New(sourceTestConfig(), spec.Stateless(spec.GS{}))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetContext(ctx)
	n := 0
	sim.OnResult(func(JobResult) {
		n++
		if n == 5 {
			cancel()
		}
	})
	stream, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSource(stream); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream run: %v, want context.Canceled", err)
	}

	got := func() *RunStats {
		sim, err := New(sourceTestConfig(), spec.Stateless(spec.GS{}))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := trace.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.RunSource(stream)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a run after a cancelled run diverged — pooled state corrupted")
	}
}

// TestRunShardedCancel: a cancelled ShardedRun returns ctx.Err() at one
// and three partitions, in accumulate and fold modes (fold mode exercises
// the merge goroutine's shutdown path too), with every worker and the
// merge goroutine shut down (no deadlock — the test completing is the
// assertion).
func TestRunShardedCancel(t *testing.T) {
	tc := sourceTestTrace(1)
	for _, parts := range []int{1, 3} {
		for _, fold := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			run := ShardedRun{
				Config:  sourceTestConfig(),
				Parts:   parts,
				Workers: 2,
				Ctx:     ctx,
				NewFactory: func(seed int64) (spec.Factory, error) {
					return spec.Stateless(spec.GS{}), nil
				},
				NewSource: func(p int) (Source, error) { return trace.NewShardStream(tc, p, parts) },
			}
			if fold {
				run.OnResult = func(JobResult) {}
				run.Jobs = tc.Jobs
			}
			if _, err := RunSharded(run); !errors.Is(err, context.Canceled) {
				t.Fatalf("parts=%d fold=%v: cancelled sharded run: %v, want context.Canceled", parts, fold, err)
			}
		}
	}
}
