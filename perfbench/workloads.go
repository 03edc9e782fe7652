package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/exp"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/serve"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
	"github.com/approx-analytics/grass/internal/traceio"
)

// simStats are a round's simulated statistics. They depend only on the
// round's seed, so the traced pass must reproduce them bit for bit and a
// pure performance change must leave them unchanged.
type simStats struct {
	Jobs             int
	Events           uint64
	Makespan         float64
	DeadlineJobs     int
	MeanAccuracy     float64
	ErrorJobs        int
	MeanInputDur     float64
	Launched, Killed int64
}

// roundResult is one unit of measured work: a replay, or a scan plus a
// serve run.
type roundResult struct {
	attempted, completed int // jobs, all epochs
	wall, setup          time.Duration
	heapPeak             uint64 // bytes, sampled
	stats                simStats
	speculative          int64 // speculative copies (known only where the benchmark folds results)

	// Engine-side figures: busy time of the goroutines running simulators,
	// one entry of partition walls per simulator run, view touch counts
	// where the benchmark builds the simulator itself.
	engine                      time.Duration
	walls                       [][]time.Duration
	touches, rescales, attempts uint64
	utilization                 float64
	touchStats                  bool

	// swim-serve only.
	scanWall      time.Duration
	scanBytes     int64
	scanRecords   int
	clientWall    time.Duration
	waits         hist // Submit blocking times
	submits       span // Submit spans (traced pass)
	queueDepthMax int64
}

// folder folds job results the way exp.Replay does, and checks that every
// job of the round completes exactly once.
type folder struct {
	s              simStats
	accSum, durSum float64
	speculative    int64
	seen           []bool
	dup, stray     int
}

func newFolder(jobs int) *folder { return &folder{seen: make([]bool, jobs)} }

func (f *folder) add(r sched.JobResult) {
	switch {
	case r.JobID < 0 || r.JobID >= len(f.seen):
		f.stray++
		return
	case f.seen[r.JobID]:
		f.dup++
		return
	}
	f.seen[r.JobID] = true
	f.s.Jobs++
	if r.Kind == task.DeadlineBound {
		f.s.DeadlineJobs++
		f.accSum += r.Accuracy
	} else {
		f.s.ErrorJobs++
		f.durSum += r.InputDuration
	}
	f.s.Launched += int64(r.Launched)
	f.s.Killed += int64(r.Killed)
	f.speculative += int64(r.Speculative)
}

// done closes the fold and reports whether every job completed once.
func (f *folder) done() (simStats, error) {
	s := f.s
	s.MeanAccuracy = ratio(f.accSum, float64(s.DeadlineJobs))
	s.MeanInputDur = ratio(f.durSum, float64(s.ErrorJobs))
	if f.dup > 0 || f.stray > 0 || s.Jobs != len(f.seen) {
		return s, fmt.Errorf("%d of %d jobs completed (%d twice, %d unknown)", s.Jobs, len(f.seen), f.dup, f.stray)
	}
	return s, nil
}

// roundSeed derives round r's simulator seed from the run seed: straggler
// durations, placement and estimator noise.
func roundSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

// corpusSeed is the synthetic trace of round r. The trace corpus is the
// same in every run, so every run replays the same jobs and the run seed
// varies only the simulated execution: the job-size tail otherwise puts
// ±18% on events per second from one seed to the next.
func corpusSeed(r int) int64 { return int64(r + 1) }

// replayTrace and replaySched mirror exp.Replay's defaults for a synthetic
// Facebook/Hadoop replay on the paper's 200×2-slot cluster at load 0.75.
func replayTrace(bound trace.BoundMode, jobs int, seed int64) trace.Config {
	def := exp.DefaultReplayConfig(jobs)
	tc := trace.DefaultConfig(def.Workload, def.Framework, bound)
	tc.Jobs = jobs
	tc.Seed = seed
	tc.Slots = def.Machines * def.SlotsPerMachine
	tc.Load = def.Load
	return tc
}

func replaySched(jobs int, seed int64) (sched.Config, error) {
	def := exp.DefaultReplayConfig(jobs)
	fc, err := fault.Scenario("")
	if err != nil {
		return sched.Config{}, err
	}
	c := sched.DefaultConfig()
	c.Cluster.Machines = def.Machines
	c.Cluster.SlotsPerMachine = def.SlotsPerMachine
	c.Seed = seed
	c.Faults = fc
	c.MaxEvents = uint64(jobs)*2000 + 1_000_000
	return c, nil
}

// newFactory builds a policy factory, traced when reg is non-nil.
func newFactory(policy string, learner core.LearnerKind, seed int64, reg *registry) (spec.Factory, error) {
	f, oracle, err := exp.NewFactoryLearner(policy, seed, learner)
	if err != nil {
		return nil, err
	}
	if oracle {
		return nil, fmt.Errorf("policy %s needs oracle views, which no workload here uses", policy)
	}
	if reg != nil {
		f = traceFactory(f, reg.newCounters())
	}
	return f, nil
}

// mixedGS is the default replay users run: exp.Replay of a mixed-bound
// trace under GS, one partition. The traced pass cannot wrap exp.Replay's
// factory, so it drives the same simulation through sched.New directly —
// which also gives it the simulator's touch counts — and the round's
// simulated statistics prove the two paths ran the same replay. The
// direct path also runs untraced, so the tracing overhead and exp.Replay's
// own cost can be told apart.
func mixedGS(seed int64, jobs int) (replay, direct roundFunc) {
	replay = func(r int, reg *registry) (*roundResult, error) {
		if reg != nil {
			return direct(r, reg)
		}
		return mixedGSReplay(replayTrace(trace.MixedBound, jobs, corpusSeed(r)), roundSeed(seed, r), jobs)
	}
	direct = func(r int, reg *registry) (*roundResult, error) {
		return mixedGSDirect(replayTrace(trace.MixedBound, jobs, corpusSeed(r)), roundSeed(seed, r), jobs, reg)
	}
	return replay, direct
}

func mixedGSReplay(tc trace.Config, seed int64, jobs int) (*roundResult, error) {
	cfg := exp.DefaultReplayConfig(jobs)
	cfg.Seed = seed
	var first firstJob
	cfg.NewSource = func(p, parts int) (sched.Source, error) {
		s, err := trace.NewShardStream(tc, p, parts)
		if err != nil {
			return nil, err
		}
		return probeSource{src: s, first: &first}, nil
	}
	t0 := time.Now()
	st, err := exp.Replay(cfg)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := &roundResult{
		attempted: jobs, wall: wall, setup: first.since(t0),
		stats: simStats{
			Jobs: st.Jobs, Events: st.Events, Makespan: st.Makespan,
			DeadlineJobs: st.DeadlineJobs, MeanAccuracy: st.MeanAccuracy,
			ErrorJobs: st.ErrorJobs, MeanInputDur: st.MeanInputDur,
			Launched: st.Launched, Killed: st.Killed,
		},
	}
	if n := st.BinCounts[0] + st.BinCounts[1] + st.BinCounts[2]; n == jobs && st.DeadlineJobs+st.ErrorJobs == jobs {
		res.completed = jobs
	}
	return res, nil
}

func mixedGSDirect(tc trace.Config, seed int64, jobs int, reg *registry) (*roundResult, error) {
	t0 := time.Now()
	scfg, err := replaySched(jobs, seed)
	if err != nil {
		return nil, err
	}
	f, err := newFactory("gs", core.LearnerRing, seed, reg)
	if err != nil {
		return nil, err
	}
	sim, err := sched.New(scfg, f)
	if err != nil {
		return nil, err
	}
	// exp.Replay folds in ascending job ID order; so does this, so the
	// floating-point sums come out bit-identical.
	fold := newFolder(jobs)
	var c *counters
	if reg != nil {
		c = reg.newCounters()
	}
	pending := make(map[int]sched.JobResult)
	nextID := 0
	sim.OnResult(func(res sched.JobResult) {
		t := time.Now()
		pending[res.JobID] = res
		for {
			q, ok := pending[nextID]
			if !ok {
				break
			}
			delete(pending, nextID)
			nextID++
			fold.add(q)
		}
		if c != nil {
			c.fold.add(time.Since(t))
		}
	})
	stream, err := trace.NewShardStream(tc, 0, 1)
	if err != nil {
		return nil, err
	}
	var first firstJob
	t1 := time.Now()
	st, err := sim.RunSource(probeSource{src: stream, first: &first, c: c})
	engine := time.Since(t1)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := &roundResult{attempted: jobs, wall: wall, setup: first.since(t0), engine: engine,
		walls: [][]time.Duration{{engine}}, utilization: st.MeanUtilization, touchStats: true}
	res.touches, res.rescales, res.attempts = sim.TouchStats()
	stats, ferr := fold.done()
	stats.Events, stats.Makespan = st.Events, st.Makespan
	res.stats, res.speculative = stats, fold.speculative
	if ferr == nil {
		res.completed = jobs
	}
	return res, nil
}

// deadlineGrassK2 replays a deadline-bound trace under GRASS with the
// mergeable sketch learner, partitioned two ways on two workers, for two
// learning epochs: each epoch's merged learned state seeds the next, the
// way exp.Replay's LearnEpochs loop does it. The loop lives here so both
// passes see every epoch's events and the learner merges can be timed.
func deadlineGrassK2(seed int64, jobs int) roundFunc {
	const parts, epochs = 2, 2
	return func(r int, reg *registry) (*roundResult, error) {
		rs := roundSeed(seed, r)
		tc := replayTrace(trace.DeadlineBound, jobs, corpusSeed(r))
		t0 := time.Now()
		scfg, err := replaySched(jobs, rs)
		if err != nil {
			return nil, err
		}
		var first firstJob
		var foldC *counters
		if reg != nil {
			foldC = reg.newCounters()
		}
		fold := newFolder(jobs * epochs)
		epoch := 0
		res := &roundResult{attempted: jobs * epochs}
		run := sched.ShardedRun{
			Config: scfg, Parts: parts, Workers: parts, Jobs: jobs,
			NewFactory: func(seed int64) (spec.Factory, error) {
				return newFactory("grass", core.LearnerSketch, seed, reg)
			},
			NewSource: func(p int) (sched.Source, error) {
				s, err := trace.NewShardStream(tc, p, parts)
				if err != nil {
					return nil, err
				}
				src := probeSource{src: s, first: &first}
				if reg != nil {
					src.c = reg.newCounters()
				}
				return src, nil
			},
			OnResult: func(jr sched.JobResult) {
				jr.JobID += epoch * jobs
				if foldC == nil {
					fold.add(jr)
					return
				}
				t := time.Now()
				fold.add(jr)
				foldC.fold.add(time.Since(t))
			},
		}
		var cum spec.LearnedState
		for epoch = 0; epoch < epochs; epoch++ {
			walls := make([]time.Duration, parts)
			var delta spec.LearnedState
			run.Walls, run.Learned = walls, cum
			run.OnLearned = func(s spec.LearnedState) { delta = s }
			st, err := sched.RunSharded(run)
			if err != nil {
				return nil, err
			}
			res.walls = append(res.walls, walls)
			for _, w := range walls {
				res.engine += w
			}
			res.stats.Events += st.Events
			res.stats.Makespan += st.Makespan
			res.utilization += st.MeanUtilization / epochs
			if epoch == epochs-1 {
				break
			}
			if delta == nil {
				return nil, fmt.Errorf("grass exported no learned state after epoch %d", epoch+1)
			}
			if cum == nil {
				cum = delta
			} else {
				cum.MergeLearned(delta)
			}
		}
		res.wall = time.Since(t0)
		res.setup = first.since(t0)
		stats, ferr := fold.done()
		stats.Events, stats.Makespan = res.stats.Events, res.stats.Makespan
		res.stats, res.speculative = stats, fold.speculative
		if ferr == nil {
			res.completed = res.attempted
		}
		return res, nil
	}
}

// swimServe scans a SWIM-format trace file and serves a prefix of its jobs
// through a one-partition serve.Server, fed by one client goroutine as fast
// as backpressure admits: a closed loop with one client. The client also
// hands finished jobs back to the trace reader.
func swimServe(seed int64, path string, jobs int) roundFunc {
	return func(r int, reg *registry) (*roundResult, error) {
		rs := roundSeed(seed, r)
		opts := traceio.DefaultOptions()
		opts.Seed = seed
		res := &roundResult{attempted: jobs}
		t0 := time.Now()
		scan, err := traceio.Scan(nil, path, traceio.SWIM, opts)
		res.scanWall = time.Since(t0)
		if err != nil {
			return nil, err
		}
		if scan.Jobs < jobs {
			return nil, fmt.Errorf("trace %s holds %d jobs, fewer than the %d served", path, scan.Jobs, jobs)
		}
		res.scanRecords = scan.Jobs
		if fi, err := os.Stat(path); err == nil {
			res.scanBytes = fi.Size()
		}
		src, err := traceio.NewSource(nil, path, traceio.SWIM, opts)
		if err != nil {
			return nil, err
		}
		defer src.Close()
		scfg, err := replaySched(jobs, rs)
		if err != nil {
			return nil, err
		}
		// The client and the serve goroutine record into separate counters.
		var c, engC *counters
		if reg != nil {
			c, engC = reg.newCounters(), reg.newCounters()
		}
		fold := newFolder(jobs)
		var finished finishedJobs
		srv, err := serve.New(serve.Config{
			Sim:        scfg,
			Partitions: 1,
			NewFactory: func(seed int64) (spec.Factory, error) {
				return newFactory("gs", core.LearnerRing, seed, reg)
			},
			OnResult: func(_ int, jr sched.JobResult) {
				if engC == nil {
					fold.add(jr)
				} else {
					t := time.Now()
					fold.add(jr)
					engC.fold.add(time.Since(t))
				}
				finished.push(jr.JobID)
			},
		})
		if err != nil {
			return nil, err
		}
		tServe := time.Now()
		ctx := context.Background()
		held := make([]*task.Job, jobs)
		var ids []int
		submitErrs := 0
		for i := 0; i < jobs; i++ {
			ids = finished.drain(ids)
			for _, id := range ids {
				src.Release(held[id])
				held[id] = nil
			}
			tn := time.Now()
			j, ok := src.Next()
			if c != nil {
				c.next.add(time.Since(tn))
			}
			if !ok {
				break
			}
			held[j.ID] = j
			ts := time.Now()
			err := srv.Submit(ctx, j)
			d := time.Since(ts)
			res.waits.add(int64(d))
			res.submits.add(d)
			if err != nil {
				submitErrs++
				held[j.ID] = nil
				src.Release(j)
				continue
			}
			if i == 0 {
				res.setup = time.Since(t0)
			}
		}
		res.clientWall = time.Since(tServe)
		srv.Close()
		sum, err := srv.Wait()
		res.wall = time.Since(t0)
		res.engine = time.Since(tServe)
		if err != nil {
			return nil, err
		}
		for _, id := range finished.drain(ids) {
			src.Release(held[id])
		}
		stats, ferr := fold.done()
		stats.Events, stats.Makespan = sum.Events, sum.Makespan
		res.stats, res.speculative = stats, fold.speculative
		res.utilization = sum.MeanUtilization
		res.queueDepthMax = sum.MaxQueueDepth
		res.walls = [][]time.Duration{{res.engine}}
		if ferr == nil && submitErrs == 0 && int(sum.Jobs) == jobs {
			res.completed = jobs
		}
		return res, nil
	}
}

// finishedJobs carries finished job IDs from the serve goroutine to the
// client, which alone touches the trace reader.
type finishedJobs struct {
	mu  sync.Mutex
	ids []int
}

func (f *finishedJobs) push(id int) {
	f.mu.Lock()
	f.ids = append(f.ids, id)
	f.mu.Unlock()
}

// drain swaps the pending IDs out, reusing buf's storage.
func (f *finishedJobs) drain(buf []int) []int {
	f.mu.Lock()
	out := f.ids
	f.ids = buf[:0]
	f.mu.Unlock()
	return out
}

// writeSWIM writes a seeded SWIM-format trace with the shape of the
// vendored sample (internal/traceio/testdata/gen.go): input sizes
// log-uniform from 1 MiB to 32 GiB, 60% of jobs with a reduce phase, and
// arrivals spaced for ~0.6 offered load on 400 slots. It returns the file
// size in bytes.
func writeSWIM(path string, seed int64, records int) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	rng := rand.New(rand.NewSource(seed))
	lgLo, lgHi := math.Log(1<<20), math.Log(32<<30)
	now := 0.0
	var n int64
	line := make([]byte, 0, 128)
	hdr := "# job_id\tsubmit_s\tgap_s\tmap_input_bytes\tshuffle_bytes\toutput_bytes\n"
	if _, err := w.WriteString(hdr); err != nil {
		return 0, err
	}
	n += int64(len(hdr))
	for i := 0; i < records; i++ {
		mapBytes := math.Exp(lgLo + rng.Float64()*(lgHi-lgLo))
		shuffle := 0.0
		if rng.Float64() < 0.6 {
			shuffle = mapBytes * (0.1 + 0.4*rng.Float64())
		}
		output := shuffle * (0.2 + 0.8*rng.Float64())
		tasks := math.Max(1, math.Ceil(mapBytes/float64(128<<20)))
		gap := rng.ExpFloat64() * tasks * 10 * 1.75 / (400 * 0.6)
		line = append(line[:0], "job"...)
		line = strconv.AppendInt(line, int64(i), 10)
		for _, v := range []struct {
			x    float64
			prec int
		}{{now, 3}, {gap, 3}, {mapBytes, 0}, {shuffle, 0}, {output, 0}} {
			line = append(line, '\t')
			line = strconv.AppendFloat(line, v.x, 'f', v.prec, 64)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return 0, err
		}
		n += int64(len(line))
		now += gap
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return n, f.Close()
}
