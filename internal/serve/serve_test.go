package serve

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/approx-analytics/grass/internal/cluster"
	"github.com/approx-analytics/grass/internal/estimate"
	"github.com/approx-analytics/grass/internal/exp"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// serveTestConfig mirrors the sched shard harness: 30 machines so 3
// partitions split evenly.
func serveTestConfig(seed int64) sched.Config {
	return sched.Config{
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

func serveTestTrace(jobs int, seed int64) trace.Config {
	tc := trace.DefaultConfig(trace.Facebook, trace.Hadoop, trace.MixedBound)
	tc.Jobs = jobs
	tc.Seed = seed
	tc.Slots = 60
	tc.Load = 0.7
	return tc
}

func serveFactory(t testing.TB, policy string) func(int64) (spec.Factory, error) {
	t.Helper()
	return func(seed int64) (spec.Factory, error) {
		return exp.NewFactory(policy, seed)
	}
}

// replayReference composes the plain engine per partition — exactly the
// shard harness's ground truth — and returns (merged stats, results by
// JobID).
func replayReference(t *testing.T, cfg sched.Config, tc trace.Config, parts int, policy string) *sched.RunStats {
	t.Helper()
	stats := make([]*sched.RunStats, parts)
	for p := 0; p < parts; p++ {
		factory, err := exp.NewFactory(policy, sched.ShardSeed(cfg.Seed, p, parts))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := sched.New(sched.ShardConfig(cfg, p, parts), factory)
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
	return sched.MergeShardStats(cfg, parts, stats)
}

// collectResults wires an OnResult that gathers every job result; the
// returned fetch sorts them into canonical JobID order.
func collectResults() (func(int, sched.JobResult), func() []sched.JobResult) {
	var mu sync.Mutex
	var rs []sched.JobResult
	on := func(_ int, r sched.JobResult) {
		mu.Lock()
		rs = append(rs, r)
		mu.Unlock()
	}
	fetch := func() []sched.JobResult {
		mu.Lock()
		defer mu.Unlock()
		sort.Slice(rs, func(i, j int) bool { return rs[i].JobID < rs[j].JobID })
		return rs
	}
	return on, fetch
}

// TestServeTraceTimedMatchesReplay is the tentpole's determinism
// guarantee: a trace-timed serve run — full stream through the admission
// driver, jobs routed by ID mod P — produces results byte-identical to
// the offline composed replay, at one partition and at three.
func TestServeTraceTimedMatchesReplay(t *testing.T) {
	cfg := serveTestConfig(11)
	tc := serveTestTrace(60, 11)
	for _, parts := range []int{1, 3} {
		want := replayReference(t, cfg, tc, parts, "gs")
		src, err := trace.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		on, fetch := collectResults()
		srv, err := New(Config{
			Sim:        cfg,
			NewFactory: serveFactory(t, "gs"),
			Partitions: parts,
			Source:     src,
			OnResult:   on,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := srv.Wait()
		if err != nil {
			t.Fatal(err)
		}
		got := fetch()
		if len(got) != len(want.Results) {
			t.Fatalf("parts=%d: served %d results, replay %d", parts, len(got), len(want.Results))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want.Results[i]) {
				t.Fatalf("parts=%d: job %d diverged from replay\nserve:  %+v\nreplay: %+v",
					parts, got[i].JobID, got[i], want.Results[i])
			}
		}
		if sum.Makespan != want.Makespan || sum.Events != want.Events ||
			sum.MeanUtilization != want.MeanUtilization || sum.EstimatorAccuracy != want.EstimatorAccuracy {
			t.Fatalf("parts=%d: summary aggregates diverged from replay\nserve:  %+v\nreplay: %+v", parts, sum, want)
		}
		if sum.Jobs != uint64(tc.Jobs) {
			t.Fatalf("parts=%d: summary counted %d jobs, want %d", parts, sum.Jobs, tc.Jobs)
		}
		// The sketch's quantiles must be the quantiles of the replay's own
		// latency multiset, within the default 1% guarantee.
		lat := make([]float64, 0, len(want.Results))
		for _, r := range want.Results {
			lat = append(lat, r.Duration)
		}
		sort.Float64s(lat)
		for _, q := range []struct{ q, got float64 }{
			{0.50, sum.P50}, {0.95, sum.P95}, {0.99, sum.P99},
		} {
			rank := int(math.Ceil(q.q * float64(len(lat))))
			if rank < 1 {
				rank = 1
			}
			exact := lat[rank-1]
			if rel := math.Abs(q.got-exact) / exact; rel > 0.011 {
				t.Errorf("parts=%d q=%g: sketch %v vs exact %v (rel %.4f)", parts, q.q, q.got, exact, rel)
			}
		}
		if sum.MaxLatency != lat[len(lat)-1] {
			t.Errorf("parts=%d: max latency %v, want exact %v", parts, sum.MaxLatency, lat[len(lat)-1])
		}
	}
}

// TestServeSubmitMatchesReplay drives the admission API by hand — no
// source attached — and must still reproduce the replay byte-for-byte.
func TestServeSubmitMatchesReplay(t *testing.T) {
	cfg := serveTestConfig(13)
	tc := serveTestTrace(50, 13)
	want := replayReference(t, cfg, tc, 1, "late")
	jobs, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	on, fetch := collectResults()
	srv, err := New(Config{Sim: cfg, NewFactory: serveFactory(t, "late"), OnResult: on})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := srv.Submit(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	if _, err := srv.Wait(); err != nil {
		t.Fatal(err)
	}
	got := fetch()
	if !reflect.DeepEqual(got, want.Results) {
		t.Fatalf("submit-driven serve diverged from replay (%d vs %d results)", len(got), len(want.Results))
	}
	// Closed admission rejects further jobs with the sentinel.
	if err := srv.Submit(context.Background(), jobs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestServePoissonDeterministic: two identical Poisson-paced runs yield
// identical virtual-time summaries, and a different pace seed yields a
// different arrival pattern (the load process actually re-times jobs).
func TestServePoissonDeterministic(t *testing.T) {
	run := func(paceSeed int64) *Summary {
		tc := serveTestTrace(80, 7)
		src, err := trace.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{
			Sim:        serveTestConfig(7),
			NewFactory: serveFactory(t, "gs"),
			Partitions: 3,
			Source:     src,
			Pace:       Pace{Mode: Poisson, Rate: 0.5, Seed: paceSeed},
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := srv.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(42), run(42)
	a.Wall, b.Wall = 0, 0 // wall clock is observational
	a.MaxQueueDepth, b.MaxQueueDepth = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical Poisson runs diverged:\n%+v\n%+v", a, b)
	}
	c := run(43)
	if c.Makespan == a.Makespan && c.Events == a.Events {
		t.Fatal("different pace seeds produced identical runs — re-timing is not happening")
	}
}

// TestServeWallPacingPreservesResults: wall pacing slows admission in real
// time but must not move a single virtual-time result.
func TestServeWallPacingPreservesResults(t *testing.T) {
	tc := serveTestTrace(30, 5)
	cfg := serveTestConfig(5)
	run := func(wallSpeed float64) *Summary {
		src, err := trace.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{
			Sim:        cfg,
			NewFactory: serveFactory(t, "gs"),
			Source:     src,
			Pace:       Pace{Mode: TraceTimed, WallSpeed: wallSpeed},
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := srv.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	flat := run(0)
	// Fast enough to finish in well under a second, slow enough that the
	// pacing branch actually sleeps between arrivals.
	paced := run(1e5)
	flat.Wall, paced.Wall = 0, 0
	flat.MaxQueueDepth, paced.MaxQueueDepth = 0, 0
	if !reflect.DeepEqual(flat, paced) {
		t.Fatalf("wall pacing changed virtual-time results:\nflat:  %+v\npaced: %+v", flat, paced)
	}
}

// TestServeCancel: cancelling the service context stops a run mid-flight —
// Wait returns ctx.Err() promptly, Submit unblocks, and building a fresh
// server afterwards works.
func TestServeCancel(t *testing.T) {
	tc := serveTestTrace(5_000, 3)
	src, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := New(Config{
		Sim:        serveTestConfig(3),
		NewFactory: serveFactory(t, "gs"),
		Partitions: 3,
		Source:     src,
		Ctx:        ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let some work happen, then pull the plug.
	for srv.Snapshot().Done == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	done := make(chan struct{})
	var waitErr error
	go func() {
		_, waitErr = srv.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return within 10s of cancellation")
	}
	if !errors.Is(waitErr, context.Canceled) {
		t.Fatalf("Wait after cancel: %v, want context.Canceled", waitErr)
	}
	// The engine state was abandoned consistently: a fresh serve run over
	// the same workload still matches the replay.
	src2, err := trace.NewStream(serveTestTrace(20, 3))
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Sim: serveTestConfig(3), NewFactory: serveFactory(t, "gs"), Source: src2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServeSubmitConcurrent is the race test: many goroutines submitting
// disjoint job IDs, snapshots being read throughout, an eventual Close —
// run under -race in CI. Determinism is not asserted (submission
// interleaving across goroutines is not ordered); invariants are.
func TestServeSubmitConcurrent(t *testing.T) {
	const submitters, perSubmitter = 8, 40
	srv, err := New(Config{
		Sim:        serveTestConfig(9),
		NewFactory: serveFactory(t, "nospec"),
		Partitions: 3,
		QueueCap:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				srv.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j := &task.Job{
					ID:        g*perSubmitter + i,
					InputWork: []float64{1, 2},
					Bound:     task.NewDeadline(50),
				}
				if err := srv.Submit(context.Background(), j); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	srv.Close()
	sum, err := srv.Wait()
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(submitters * perSubmitter); sum.Jobs != want {
		t.Fatalf("served %d jobs, want %d", sum.Jobs, want)
	}
	if sum.P50 <= 0 || math.IsInf(sum.P99, 0) || math.IsNaN(sum.P99) {
		t.Fatalf("latency quantiles insane: p50=%v p99=%v", sum.P50, sum.P99)
	}
	snap := srv.Snapshot()
	if snap.Done != uint64(submitters*perSubmitter) || snap.QueueDepth != 0 {
		t.Fatalf("post-drain snapshot: done=%d depth=%d", snap.Done, snap.QueueDepth)
	}
}

// TestServeSubmitValidation: the admission edge rejects bad jobs without
// poisoning the partition loops.
func TestServeSubmitValidation(t *testing.T) {
	srv, err := New(Config{Sim: serveTestConfig(1), NewFactory: serveFactory(t, "gs")})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(context.Background(), nil); err == nil {
		t.Error("nil job admitted")
	}
	if err := srv.Submit(context.Background(), &task.Job{ID: -1, InputWork: []float64{1}}); err == nil {
		t.Error("negative-ID job admitted")
	}
	if err := srv.Submit(context.Background(), &task.Job{ID: 0}); err == nil {
		t.Error("invalid (no tasks) job admitted")
	}
	// A good job still goes through after the rejections.
	j := &task.Job{ID: 0, Arrival: 5, InputWork: []float64{1}, Bound: task.NewDeadline(10)}
	if err := srv.Submit(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	// Out-of-order arrivals are clamped to the partition's admission clock,
	// not errored — a live submitter cannot rewind virtual time.
	j2 := &task.Job{ID: 1, Arrival: 2, InputWork: []float64{1}, Bound: task.NewDeadline(10)}
	if err := srv.Submit(context.Background(), j2); err != nil {
		t.Fatal(err)
	}
	if j2.Arrival < j.Arrival {
		t.Fatalf("arrival clamp missing: %v < %v", j2.Arrival, j.Arrival)
	}
	srv.Close()
	if _, err := srv.Wait(); err != nil {
		t.Fatal(err)
	}
}

// nanArrivalSource is a trace stream whose third job arrives at NaN.
type nanArrivalSource struct {
	*trace.Stream
	n int
}

func (s *nanArrivalSource) Next() (*task.Job, bool) {
	j, ok := s.Stream.Next()
	if s.n++; ok && s.n == 3 {
		j.Arrival = math.NaN()
	}
	return j, ok
}

// TestServeSourceRejectedJobFailsWait: a source job that Submit rejects
// fails the run with that job's ID, as sched.RunSource fails on the same
// jobs, instead of ending in a normal summary of the jobs before it.
func TestServeSourceRejectedJobFailsWait(t *testing.T) {
	tc := serveTestTrace(10, 5)
	newSource := func() *nanArrivalSource {
		st, err := trace.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		return &nanArrivalSource{Stream: st}
	}
	f, err := exp.NewFactory("gs", 5)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.New(serveTestConfig(5), f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSource(newSource()); err == nil {
		t.Fatal("sched.RunSource accepted a NaN arrival")
	}
	srv, err := New(Config{Sim: serveTestConfig(5), NewFactory: serveFactory(t, "gs"), Source: newSource()})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := srv.Wait()
	if err == nil {
		t.Fatalf("Wait succeeded after a rejected job, serving %d jobs", sum.Jobs)
	}
	if !strings.Contains(err.Error(), "job 2") {
		t.Fatalf("Wait error %q does not name the rejected job 2", err)
	}
}

// TestServeConfigValidation: New rejects broken configurations up front.
func TestServeConfigValidation(t *testing.T) {
	good := func() Config {
		return Config{Sim: serveTestConfig(1), NewFactory: serveFactory(t, "gs")}
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil factory", func(c *Config) { c.NewFactory = nil }},
		{"negative partitions", func(c *Config) { c.Partitions = -1 }},
		{"partitions exceed machines", func(c *Config) { c.Partitions = 31 }},
		{"negative queue cap", func(c *Config) { c.QueueCap = -1 }},
		{"poisson without rate", func(c *Config) { c.Pace = Pace{Mode: Poisson} }},
		{"unknown pace mode", func(c *Config) { c.Pace = Pace{Mode: PaceMode(99)} }},
		{"negative wall speed", func(c *Config) { c.Pace = Pace{WallSpeed: -1} }},
		{"bad sim config", func(c *Config) { c.Sim.DurationBeta = -1 }},
	}
	for _, tc := range cases {
		cfg := good()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
}

// TestServeStreamRecycling: with a Releaser source the server hands every
// job back — the stream's pool sees as many releases as jobs served, the
// bounded-memory property live serving inherits from replays.
func TestServeStreamRecycling(t *testing.T) {
	tc := serveTestTrace(100, 17)
	src, err := trace.NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStream{Stream: src}
	srv, err := New(Config{
		Sim:        serveTestConfig(17),
		NewFactory: serveFactory(t, "gs"),
		Partitions: 3,
		Source:     cs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := srv.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 100 {
		t.Fatalf("served %d jobs, want 100", sum.Jobs)
	}
	if got := cs.released.Load(); got != 100 {
		t.Fatalf("source got %d jobs back, want all 100", got)
	}
}
