package exp

// This file implements trace-scale streaming replays. The paper's
// evaluation replays 575K Facebook and 500K Bing jobs; Replay reproduces
// that regime by streaming a synthetic trace of any length through one
// simulator in bounded memory — jobs are generated lazily, recycled when
// they finish, per-job results are folded into running aggregates instead
// of being retained, and the event engine recycles its event objects. A
// heap high-water sampler reports the footprint so regressions that tie
// memory back to the trace length are visible immediately.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
	"github.com/approx-analytics/grass/internal/traceio"
)

// ReplayConfig parameterizes one streaming replay.
type ReplayConfig struct {
	// Jobs is the trace length — a million-job replay is the intended use.
	Jobs int
	// Policy is the speculation policy name (NewFactory's set).
	Policy string
	// Workload, Framework, Bound select the synthetic trace. The zero Bound
	// is trace.DeadlineBound; DefaultReplayConfig picks trace.MixedBound,
	// the mixed production workload replays are normally run with.
	// Framework also sets the estimator noise, as in every experiment
	// (Config.SchedConfig).
	Workload  trace.Workload
	Framework trace.Framework
	Bound     trace.BoundMode
	// Machines and SlotsPerMachine size the cluster; 0 means the paper's
	// 200×2.
	Machines, SlotsPerMachine int
	// Load is the offered load; 0 means 0.75 (busy but stable queues, the
	// regime a replay must sustain for the whole trace).
	Load float64
	// Seed drives trace generation and the simulator.
	Seed int64
	// MemSample sets the heap sampling interval; 0 means 20ms.
	MemSample time.Duration

	// Partitions is the sharded-execution model: the cluster and trace are
	// split into this many self-contained partitions with a deterministic
	// merge (sched.RunSharded). 1 is the plain engine; 0 follows Shards —
	// "replay sharded 4 ways" usually means both. The partition count
	// changes the simulated model (fair sharing is scoped to a partition),
	// so results are comparable only at equal Partitions.
	Partitions int
	// Shards is the number of worker goroutines executing partitions. At a
	// fixed Partitions it never affects results — only wall clock — but
	// when Partitions is 0 it also sets the partition count, which is
	// model-visible; 0 means 1.
	Shards int

	// TraceFile, when non-empty, replays an imported real cluster trace
	// (internal/traceio) instead of a synthetic one: TraceFormat selects
	// the decoder, TraceOptions the record→job mapping rules (nil means
	// traceio.DefaultOptions). The file is scanned once up front — every
	// record validated with positioned errors, the job count established
	// for the sharded merge — then streamed per partition, so a multi-GB
	// log replays in the same bounded memory as a synthetic stream. Jobs,
	// Workload and Bound are ignored (the trace is the workload; bounds
	// come from TraceOptions).
	TraceFile    string
	TraceFormat  traceio.Format
	TraceOptions *traceio.Options

	// Scenario names a fault-injection preset (fault.Scenarios: "crashy",
	// "rack-storm", "contended", "overload-mixed"); "" and "none" replay a
	// benign cluster, byte-identical to a build without fault support.
	// FaultSeed, when non-zero, pins the fault timeline independently of
	// Seed, so the same fault schedule can be replayed under different
	// workload seeds (and vice versa); 0 derives the timeline from Seed.
	Scenario  string
	FaultSeed int64

	// Learner selects the GRASS learner implementation by name ("" or
	// "ring" for the per-partition ring store, "sketch" for the mergeable
	// sketch store — core.ParseLearnerKind's set). With "sketch" at
	// Partitions > 1 the per-partition learners fold at the canonical
	// merge, so a later epoch's partitions query the combined cluster
	// history. Non-GRASS policies ignore it.
	Learner string
	// LearnEpochs replays the trace this many times, carrying merged
	// learned state from each epoch into the next (0 and 1 mean a single
	// pass). Epochs > 1 require Learner "sketch" — the ring store is not
	// mergeable. Reported aggregates are the FINAL epoch's (the warmed-up
	// regime); Wall and the memory high-water span all epochs.
	LearnEpochs int

	// NewSource, when set, replays fully custom admission sources:
	// NewSource(p, parts) must return partition p's jobs — dense IDs
	// ≡ p (mod parts), non-decreasing arrivals — and Jobs must hold the
	// exact total job count. Overrides both the synthetic trace and
	// TraceFile. Mainly for tests (e.g. bounded-memory harnesses feeding
	// synthesized trace bytes through the import decoder).
	NewSource func(part, parts int) (sched.Source, error)
}

// DefaultReplayConfig returns a mixed Facebook/Hadoop replay of n jobs —
// the single source of the replay defaults. Replay falls back to these for
// a zero Policy, Machines, SlotsPerMachine, Load and MemSample; Bound,
// Workload, Framework and Seed are taken as given (their zero values are
// meaningful: a deadline-bound Facebook/Hadoop trace with seed 0).
func DefaultReplayConfig(n int) ReplayConfig {
	return ReplayConfig{
		Jobs:            n,
		Policy:          "gs",
		Workload:        trace.Facebook,
		Framework:       trace.Hadoop,
		Bound:           trace.MixedBound,
		Machines:        200,
		SlotsPerMachine: 2,
		Load:            0.75,
		Seed:            1,
		MemSample:       20 * time.Millisecond,
	}
}

// ReplayStats aggregates a streaming replay. Everything here is O(1) in the
// trace length.
type ReplayStats struct {
	Jobs            int
	Events          uint64
	Makespan        float64
	MeanUtilization float64
	Wall            time.Duration

	// Partitions and Shards echo the sharded-execution configuration the
	// replay ran under. ShardWalls holds each partition's own wall clock
	// when Partitions > 1: Σ/max is the speedup bound extra cores can
	// realize, reported by Render as the balance line.
	Partitions, Shards int
	ShardWalls         []time.Duration

	// Learner and LearnEpochs echo the learning configuration; aggregates
	// are the final epoch's when LearnEpochs > 1.
	Learner     string
	LearnEpochs int

	// Scenario echoes the fault preset the replay ran under ("" when
	// benign); Faults are the cluster-wide applied fault counts and Lost the
	// crash-killed copies, summed across partitions. All zero when benign.
	Scenario string
	Faults   sched.FaultStats
	Lost     int64

	// Per-class aggregates: deadline jobs report mean accuracy, error-bound
	// (and exact) jobs mean input duration — the paper's two headline axes.
	DeadlineJobs     int
	MeanAccuracy     float64
	ErrorJobs        int
	MeanInputDur     float64
	BinCounts        [3]int // jobs per paper size bin
	Launched, Killed int64  // copies launched / killed cluster-wide
	// Bins breaks the class aggregates down by paper size bin, in
	// BinCounts order.
	Bins [3]BinStats

	// HeapHighWater is the peak sampled heap in use during the replay;
	// HeapSysHighWater the peak heap claimed from the OS. Bounded-memory
	// replays keep these flat as Jobs grows.
	HeapHighWater    uint64
	HeapSysHighWater uint64
}

// BinStats aggregates one paper size bin of a replay.
type BinStats struct {
	DeadlineJobs, ErrorJobs    int
	MeanAccuracy, MeanInputDur float64
	Speculative, Killed        int64 // copies
}

// Render writes the replay summary as plain text.
func (r *ReplayStats) Render(w io.Writer) {
	fmt.Fprintf(w, "== Streaming replay: %d jobs, %d events, makespan %.0f, util %.2f [%v]\n",
		r.Jobs, r.Events, r.Makespan, r.MeanUtilization, r.Wall.Round(time.Millisecond))
	if r.Partitions > 1 {
		var sum, max time.Duration
		for _, d := range r.ShardWalls {
			sum += d
			if d > max {
				max = d
			}
		}
		balance := 0.0
		if max > 0 {
			balance = float64(sum) / float64(max)
		}
		fmt.Fprintf(w, "%-24s %d partitions on %d shard workers; balance %.2fx (sum/max partition wall — the ceiling extra cores can reach)\n",
			"sharded execution", r.Partitions, r.Shards, balance)
	}
	if r.LearnEpochs > 1 || r.Learner == "sketch" {
		fmt.Fprintf(w, "%-24s %s learner, %d epoch(s); stats are the final epoch's\n",
			"grass learning", r.Learner, max(r.LearnEpochs, 1))
	}
	fmt.Fprintf(w, "%-24s %12d %12d %12d\n", "jobs per bin (<50/51-500/>500)", r.BinCounts[0], r.BinCounts[1], r.BinCounts[2])
	for i, b := range r.Bins {
		fmt.Fprintf(w, "  %-22s deadline %8d acc %6.4f   error/exact %8d dur %8.2f   speculative %d killed %d\n",
			"bin "+task.SizeBin(i).String(), b.DeadlineJobs, b.MeanAccuracy, b.ErrorJobs, b.MeanInputDur, b.Speculative, b.Killed)
	}
	fmt.Fprintf(w, "%-24s %12d   mean accuracy  %8.4f\n", "deadline jobs", r.DeadlineJobs, r.MeanAccuracy)
	fmt.Fprintf(w, "%-24s %12d   mean input dur %8.2f\n", "error/exact jobs", r.ErrorJobs, r.MeanInputDur)
	fmt.Fprintf(w, "%-24s %12d   killed %d\n", "copies launched", r.Launched, r.Killed)
	// The fault line exists only under a scenario, so benign replay output
	// stays byte-identical to the pre-fault pipeline (the goldens pin it).
	if r.Scenario != "" {
		fmt.Fprintf(w, "%-24s %s: %d crashes (%d copies lost), %d storms, %d bursts (%d slots)\n",
			"fault scenario", r.Scenario, r.Faults.Crashes, r.Lost, r.Faults.Storms, r.Faults.Bursts, r.Faults.InterferedSlots)
	}
	fmt.Fprintf(w, "%-24s %9.1f MiB (heap in use), %.1f MiB (heap from OS)\n",
		"memory high-water", float64(r.HeapHighWater)/(1<<20), float64(r.HeapSysHighWater)/(1<<20))
}

// memWatch samples the heap until stopped, keeping the maxima. Sampling
// only observes the run — simulation results do not depend on it.
type memWatch struct {
	heap, sys atomic.Uint64
	stop      chan struct{}
	done      sync.WaitGroup
}

func startMemWatch(every time.Duration) *memWatch {
	w := &memWatch{stop: make(chan struct{})}
	w.sample()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.sample()
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

func (w *memWatch) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > w.heap.Load() {
		w.heap.Store(m.HeapAlloc)
	}
	if m.HeapSys > w.sys.Load() {
		w.sys.Store(m.HeapSys)
	}
}

func (w *memWatch) finish() (heap, sys uint64) {
	close(w.stop)
	w.done.Wait()
	w.sample()
	return w.heap.Load(), w.sys.Load()
}

// Replay streams cfg.Jobs jobs through one simulator and returns the
// aggregates. Memory stays bounded for any trace length: the trace is
// generated lazily with finished jobs recycled, results are folded as they
// arrive, and the simulator's own state tracks the in-flight set.
func Replay(cfg ReplayConfig) (*ReplayStats, error) {
	if cfg.Jobs <= 0 && cfg.TraceFile == "" && cfg.NewSource == nil {
		return nil, fmt.Errorf("exp: replay of %d jobs", cfg.Jobs)
	}
	if cfg.NewSource != nil && cfg.Jobs <= 0 {
		return nil, fmt.Errorf("exp: a custom NewSource replay needs the exact job count (got %d)", cfg.Jobs)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("exp: %d shards (want >= 1, or 0 for the default single worker)", cfg.Shards)
	}
	if cfg.Partitions < 0 {
		return nil, fmt.Errorf("exp: %d partitions (want >= 1, or 0 to follow Shards)", cfg.Partitions)
	}
	if cfg.LearnEpochs < 0 {
		return nil, fmt.Errorf("exp: %d learn epochs (want >= 1, or 0 for a single pass)", cfg.LearnEpochs)
	}
	def := DefaultReplayConfig(cfg.Jobs)
	if cfg.Policy == "" {
		cfg.Policy = def.Policy
	}
	if cfg.Machines == 0 {
		cfg.Machines = def.Machines
	}
	if cfg.SlotsPerMachine == 0 {
		cfg.SlotsPerMachine = def.SlotsPerMachine
	}
	if cfg.Load == 0 {
		cfg.Load = def.Load
	}
	if cfg.MemSample == 0 {
		cfg.MemSample = def.MemSample
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = cfg.Shards
	}

	// Resolve the admission source: custom > imported trace file >
	// synthetic stream. Imported traces are scanned first — a full
	// streaming validation pass — so a malformed record fails here with
	// its file:line position instead of surfacing as a truncated replay,
	// and so the job count is known for the sharded merge.
	newSource := cfg.NewSource
	var imported *importedSources
	if newSource == nil && cfg.TraceFile != "" {
		opts := traceio.DefaultOptions()
		if cfg.TraceOptions != nil {
			opts = *cfg.TraceOptions
		}
		scan, err := traceio.Scan(nil, cfg.TraceFile, cfg.TraceFormat, opts)
		if err != nil {
			return nil, err
		}
		if scan.Jobs == 0 {
			return nil, fmt.Errorf("exp: %s contains no jobs (empty or comment-only trace)", cfg.TraceFile)
		}
		if scan.Jobs < cfg.Partitions {
			return nil, fmt.Errorf("exp: %s has %d jobs, fewer than %d partitions (every partition needs at least one job)",
				cfg.TraceFile, scan.Jobs, cfg.Partitions)
		}
		cfg.Jobs = scan.Jobs
		imported = &importedSources{file: cfg.TraceFile, format: cfg.TraceFormat, opts: opts}
		newSource = imported.open
	}

	tc := trace.DefaultConfig(cfg.Workload, cfg.Framework, cfg.Bound)
	tc.Jobs = cfg.Jobs
	tc.Seed = cfg.Seed
	tc.Slots = cfg.Machines * cfg.SlotsPerMachine
	tc.Load = cfg.Load

	learner, err := core.ParseLearnerKind(cfg.Learner)
	if err != nil {
		return nil, err
	}
	epochs := cfg.LearnEpochs
	if epochs <= 0 {
		epochs = 1
	}
	if epochs > 1 && learner != core.LearnerSketch {
		return nil, fmt.Errorf("exp: %d learn epochs need the mergeable sketch learner (set Learner to \"sketch\"; the ring store cannot carry state across epochs)", epochs)
	}
	_, oracleMode, err := NewFactoryLearner(cfg.Policy, cfg.Seed, learner)
	if err != nil {
		return nil, err
	}
	fc, err := fault.Scenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	if cfg.FaultSeed != 0 {
		fc.Seed = cfg.FaultSeed
	}
	scfg := Config{Machines: cfg.Machines, SlotsPerMachine: cfg.SlotsPerMachine}.SchedConfig(cfg.Framework, cfg.Seed, oracleMode)
	scfg.Faults = fc
	// The default event ceiling guards tests; a million-job replay
	// legitimately fires hundreds of millions of events.
	scfg.MaxEvents = uint64(cfg.Jobs)*2000 + 1_000_000

	rs := &ReplayStats{
		Jobs: cfg.Jobs, Partitions: cfg.Partitions, Shards: cfg.Shards,
		Learner: learner.String(), LearnEpochs: epochs,
	}
	if fc.Enabled() {
		rs.Scenario = cfg.Scenario
	}
	var accSum, durSum float64
	var binAcc, binDur [3]float64
	fold := func(r sched.JobResult) {
		rs.BinCounts[int(r.Bin)]++
		b := &rs.Bins[r.Bin]
		if r.Kind == task.DeadlineBound {
			rs.DeadlineJobs++
			accSum += r.Accuracy
			b.DeadlineJobs++
			binAcc[r.Bin] += r.Accuracy
		} else {
			rs.ErrorJobs++
			durSum += r.InputDuration
			b.ErrorJobs++
			binDur[r.Bin] += r.InputDuration
		}
		rs.Launched += int64(r.Launched)
		rs.Killed += int64(r.Killed)
		rs.Lost += int64(r.Lost)
		b.Speculative += int64(r.Speculative)
		b.Killed += int64(r.Killed)
	}

	// The partitioned runner: Partitions is the model, Shards the worker
	// count. Partitions == 1 takes RunSharded's plain-engine reduction, so
	// an unsharded replay is exactly the pre-sharding pipeline.
	walls := make([]time.Duration, cfg.Partitions)
	if newSource == nil {
		newSource = func(p, parts int) (sched.Source, error) {
			return trace.NewShardStream(tc, p, parts)
		}
	}
	run := sched.ShardedRun{
		Config:  scfg,
		Parts:   cfg.Partitions,
		Workers: cfg.Shards,
		NewFactory: func(seed int64) (spec.Factory, error) {
			f, _, err := NewFactoryLearner(cfg.Policy, seed, learner)
			return f, err
		},
		NewSource: func(p int) (sched.Source, error) {
			return newSource(p, cfg.Partitions)
		},
		OnResult: fold,
		Jobs:     cfg.Jobs,
		Walls:    walls,
	}

	watch := startMemWatch(cfg.MemSample)
	t0 := time.Now()
	var stats *sched.RunStats
	var cum spec.LearnedState // history accumulated across epochs
	for e := 0; e < epochs; e++ {
		// Aggregates report the final epoch: reset the fold state each lap.
		rs.BinCounts, rs.DeadlineJobs, rs.ErrorJobs = [3]int{}, 0, 0
		rs.Launched, rs.Killed = 0, 0
		accSum, durSum = 0, 0
		rs.Bins, binAcc, binDur = [3]BinStats{}, [3]float64{}, [3]float64{}
		run.Learned = cum
		var delta spec.LearnedState
		if epochs > 1 {
			run.OnLearned = func(s spec.LearnedState) { delta = s }
		}
		if stats, err = sched.RunSharded(run); err != nil || e == epochs-1 {
			break
		}
		// Exports are this epoch's own recordings (the seeded base never
		// re-exports), so accumulating is a plain merge of deltas.
		if delta == nil {
			err = fmt.Errorf("exp: policy %q exported no learned state after epoch %d (multi-epoch replays need a GRASS policy)", cfg.Policy, e+1)
			break
		}
		if cum == nil {
			cum = delta
		} else {
			cum.MergeLearned(delta)
		}
	}
	rs.Wall = time.Since(t0)
	rs.ShardWalls = walls
	rs.HeapHighWater, rs.HeapSysHighWater = watch.finish()
	if imported != nil {
		// A decode error during the replay itself (the file changed since
		// the scan, a read failure mid-stream) surfaces as a truncated
		// partition; the source's own positioned error is the diagnosis.
		err = imported.close(err)
	}
	if err != nil {
		return nil, err
	}
	rs.Events = stats.Events
	rs.Makespan = stats.Makespan
	rs.MeanUtilization = stats.MeanUtilization
	rs.Faults = stats.Faults
	if rs.DeadlineJobs > 0 {
		rs.MeanAccuracy = accSum / float64(rs.DeadlineJobs)
	}
	if rs.ErrorJobs > 0 {
		rs.MeanInputDur = durSum / float64(rs.ErrorJobs)
	}
	for i := range rs.Bins {
		b := &rs.Bins[i]
		if b.DeadlineJobs > 0 {
			b.MeanAccuracy = binAcc[i] / float64(b.DeadlineJobs)
		}
		if b.ErrorJobs > 0 {
			b.MeanInputDur = binDur[i] / float64(b.ErrorJobs)
		}
	}
	return rs, nil
}

// importedSources tracks the per-partition trace readers of an imported
// replay so their file handles close and their positioned decode errors
// win over the generic "partition finished early" merge error. Partition
// workers open sources concurrently, hence the lock.
type importedSources struct {
	file   string
	format traceio.Format
	opts   traceio.Options

	mu      sync.Mutex
	readers []*traceio.Source
}

// open builds partition p's shard reader (jobs with dense ID ≡ p mod parts).
func (s *importedSources) open(p, parts int) (sched.Source, error) {
	src, err := traceio.NewShardSource(nil, s.file, s.format, s.opts, p, parts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.readers = append(s.readers, src)
	s.mu.Unlock()
	return src, nil
}

// close closes every reader and resolves the replay error: a reader's own
// positioned DecodeError is strictly more useful than runErr's echo of the
// truncated stream, so it takes precedence.
func (s *importedSources) close(runErr error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := runErr
	for _, src := range s.readers {
		if serr := src.Err(); serr != nil {
			var de *traceio.DecodeError
			if errors.As(serr, &de) || err == nil {
				err = serr
			}
		}
		src.Close()
	}
	return err
}
