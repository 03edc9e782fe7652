// Package serve turns the deterministic replay engine into a long-running
// scheduler service: jobs arrive open-loop through a Submit admission API
// (or an attached source driver, see feed.go), flow into per-partition
// sched.Simulator event loops via sched.RunSource, and the service reports
// the metrics a production straggler-mitigation system is judged on —
// p50/p95/p99/p999 job latency, queue depth, and slot utilization — while
// it runs.
//
// # Determinism
//
// The engine underneath is untouched: admission queues feed the exact
// RunSource path every replay uses, so a server fed a trace's jobs with
// their trace arrival times produces results byte-identical to the plain
// replay of that trace — and with Partitions > 1, byte-identical to
// sched.RunSharded under the same partition count (partitions get
// ShardConfig sub-clusters and ShardSeed-derived seeds, and jobs route by
// ID mod P exactly like trace.NewShardStream). Latency telemetry merges
// across partitions through the metrics.Sketch's loss-free bucket
// addition, folded in canonical ascending-partition order, so the final
// SLO summary is deterministic for any wall-clock interleaving. Wall-clock
// pacing (feed.go) only changes WHEN jobs become available in real time,
// never the virtual-time outcome.
//
// # Threading
//
// Each partition owns one goroutine running its simulator; Submit may be
// called from any number of goroutines. Telemetry is kept off the hot
// path: gauges are atomics written once per job completion (never per
// event), and the latency sketch takes one short per-partition mutex per
// finished job. Snapshot and the final summary read copies — the
// management surface never touches simulator state, the discipline
// ndn-dpdk applies to its data planes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approx-analytics/grass/internal/metrics"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// ErrClosed is returned by Submit once the server stopped accepting jobs.
var ErrClosed = errors.New("serve: server closed to new submissions")

// Config parameterizes a Server.
type Config struct {
	// Sim is the unpartitioned simulator configuration; with Partitions > 1
	// each partition runs under sched.ShardConfig(Sim, p, Partitions).
	Sim sched.Config
	// NewFactory builds one partition's policy factory from its seed —
	// policy state must not be shared across partitions.
	NewFactory func(seed int64) (spec.Factory, error)
	// Partitions splits the cluster into this many self-contained engines
	// (the sharded-execution MODEL; results are comparable only at equal
	// partition counts). 0 or 1 is the plain engine.
	Partitions int
	// QueueCap is each partition's admission buffer; Submit blocks (applies
	// backpressure) when a partition's queue is full. 0 means 1024.
	QueueCap int
	// Alpha is the latency sketch's relative-error guarantee; 0 means
	// metrics.DefaultSketchAlpha (1%).
	Alpha float64
	// Ctx cancels the whole service: running partitions stop promptly
	// (sched.Simulator.SetContext), blocked Submits unblock, and Wait
	// returns ctx.Err(). Nil means never cancelled.
	Ctx context.Context
	// OnResult, when set, observes every finished job. It is called on the
	// owning partition's serve goroutine — concurrently across partitions —
	// so it must be safe for concurrent use when Partitions > 1.
	OnResult func(part int, r sched.JobResult)

	// Source, when set, attaches the open-loop arrival driver: the server
	// pulls jobs from Source and submits them itself, paced by Pace, then
	// closes admission when the source ends or a bound (MaxJobs, For) is
	// hit. See feed.go. Jobs route to partitions by ID mod Partitions, so a
	// plain trace.Stream fed here reproduces trace.NewShardStream's
	// partitioning exactly. If Source implements sched.Releaser, finished
	// jobs are recycled back to it (bounded-memory serving).
	Source sched.Source
	// Pace selects how driver arrivals are timed; the zero value is
	// trace-timed, flat out. Ignored without Source.
	Pace Pace
	// MaxJobs bounds the driver's admissions; 0 means until Source ends.
	MaxJobs int
	// For bounds the driver in wall-clock time: admission closes once this
	// much real time has elapsed (running jobs still drain). 0 means
	// unbounded.
	For time.Duration
}

// Server is a live scheduler service. Build with New, feed with Submit (or
// an attached Config.Source), stop admission with Close, and collect the
// final summary with Wait. Snapshot reports live telemetry at any point.
type Server struct {
	cfg   Config
	ctx   context.Context
	parts []*partition
	rec   *recycler // non-nil iff Config.Source recycles finished jobs
	wg    sync.WaitGroup

	closeOnce sync.Once
	waitOnce  sync.Once
	summary   *Summary
	waitErr   error
	driveErr  error // the driver's rejected-job error; written before wg.Done
	start     time.Time
}

// partition is one self-contained engine: its own queue, simulator
// goroutine, sketch and gauges.
type partition struct {
	idx   int
	queue chan *task.Job

	// mu serializes admission: the closed flag, the monotone arrival
	// clock, and the queue send (so same-partition submissions enter the
	// queue in arrival order).
	mu          sync.Mutex
	closed      bool
	lastArrival float64

	loopDone chan struct{}
	stats    *sched.RunStats
	err      error

	// Telemetry. The sketch is guarded by tmu (one short critical section
	// per finished job, snapshot merges read clones); gauges are atomics.
	tmu       sync.Mutex
	sketch    *metrics.Sketch
	slots     int // this partition's slot count, for utilization weighting
	submitted atomic.Uint64
	done      atomic.Uint64
	depth     atomic.Int64
	depthMax  atomic.Int64
	utilBits  atomic.Uint64
	vnowBits  atomic.Uint64
}

// New validates cfg, starts one serve goroutine per partition (and the
// arrival driver, when Config.Source is set), and returns the running
// server.
func New(cfg Config) (*Server, error) {
	if cfg.NewFactory == nil {
		return nil, fmt.Errorf("serve: nil NewFactory")
	}
	if err := cfg.Sim.Validate(); err != nil {
		return nil, err
	}
	if cfg.Partitions < 0 {
		return nil, fmt.Errorf("serve: %d partitions", cfg.Partitions)
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = 1
	}
	if cfg.Partitions > cfg.Sim.Cluster.Machines {
		return nil, fmt.Errorf("serve: %d partitions exceed %d machines (a partition needs at least one)",
			cfg.Partitions, cfg.Sim.Cluster.Machines)
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("serve: negative queue capacity %d", cfg.QueueCap)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 1024
	}
	if err := cfg.Pace.validate(); err != nil {
		return nil, err
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Server{cfg: cfg, ctx: ctx, start: time.Now()}
	if rel, ok := cfg.Source.(sched.Releaser); ok {
		s.rec = &recycler{rel: rel}
	}
	for p := 0; p < cfg.Partitions; p++ {
		part := &partition{
			idx:      p,
			queue:    make(chan *task.Job, cfg.QueueCap),
			loopDone: make(chan struct{}),
			sketch:   metrics.NewSketch(cfg.Alpha),
			slots:    sched.ShardConfig(cfg.Sim, p, cfg.Partitions).Cluster.Machines * cfg.Sim.Cluster.SlotsPerMachine,
		}
		s.parts = append(s.parts, part)
	}
	for _, part := range s.parts {
		s.wg.Add(1)
		go func(part *partition) {
			defer s.wg.Done()
			s.runPartition(part)
		}(part)
	}
	if cfg.Source != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.drive()
		}()
	}
	return s, nil
}

// runPartition builds one partition's simulator and drains its admission
// queue to completion — the engine's unmodified RunSource path.
func (s *Server) runPartition(p *partition) {
	defer close(p.loopDone)
	parts := s.cfg.Partitions
	factory, err := s.cfg.NewFactory(sched.ShardSeed(s.cfg.Sim.Seed, p.idx, parts))
	if err != nil {
		p.err = err
		return
	}
	sim, err := sched.New(sched.ShardConfig(s.cfg.Sim, p.idx, parts), factory)
	if err != nil {
		p.err = err
		return
	}
	if s.cfg.Ctx != nil {
		sim.SetContext(s.cfg.Ctx)
	}
	sim.OnResult(func(r sched.JobResult) {
		p.tmu.Lock()
		p.sketch.Observe(r.Duration)
		p.tmu.Unlock()
		p.done.Add(1)
		p.utilBits.Store(math.Float64bits(sim.Utilization()))
		p.vnowBits.Store(math.Float64bits(sim.VirtualNow()))
		if s.cfg.OnResult != nil {
			s.cfg.OnResult(p.idx, r)
		}
	})
	p.stats, p.err = sim.RunSource(&queueSource{p: p, done: s.ctx.Done(), sink: s.rec})
}

// queueSource adapts a partition's admission queue to the simulator's
// Source interface. Next blocks until a job is submitted, admission closes,
// or the server's context is cancelled (the simulator's own periodic check
// then surfaces ctx.Err()). Release forwards finished jobs to the server's
// recycle sink when one is attached.
type queueSource struct {
	p    *partition
	done <-chan struct{}
	sink *recycler
}

func (q *queueSource) Next() (*task.Job, bool) {
	select {
	case j, ok := <-q.p.queue:
		if !ok {
			return nil, false
		}
		q.p.depth.Add(-1)
		return j, true
	case <-q.done:
		return nil, false
	}
}

func (q *queueSource) Release(j *task.Job) {
	if q.sink != nil {
		q.sink.put(j)
	}
}

// Submit admits one job into the service. The job must have a non-negative
// ID (jobs route to partitions by ID mod Partitions) and pass validation —
// invalid jobs are rejected here, at the admission edge, instead of
// poisoning a partition's event loop mid-run. The job's Arrival is its
// position on the virtual-time axis; arrivals that would run the
// partition's admission clock backwards are clamped forward to the last
// admitted arrival (a live submitter usually leaves Arrival zero and lets
// the clamp assign "now"). Submit blocks when the partition's queue is
// full — that is the open-loop backpressure signal — until space frees,
// ctx or the server's context is done, admission is closed, or the
// partition's engine exits. The server owns the job from a successful
// Submit until its result is delivered.
func (s *Server) Submit(ctx context.Context, j *task.Job) error {
	if j == nil {
		return fmt.Errorf("serve: nil job")
	}
	if j.ID < 0 {
		return fmt.Errorf("serve: job ID %d must be non-negative", j.ID)
	}
	if err := j.Validate(); err != nil {
		return err
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	p := s.parts[j.ID%len(s.parts)]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if j.Arrival < p.lastArrival {
		j.Arrival = p.lastArrival
	}
	p.lastArrival = j.Arrival
	select {
	case p.queue <- j:
		p.submitted.Add(1)
		d := p.depth.Add(1)
		for {
			max := p.depthMax.Load()
			if d <= max || p.depthMax.CompareAndSwap(max, d) {
				break
			}
		}
		return nil
	case <-p.loopDone:
		if p.err != nil {
			return fmt.Errorf("serve: partition %d engine exited: %w", p.idx, p.err)
		}
		return fmt.Errorf("serve: partition %d engine exited", p.idx)
	case <-ctxDone:
		return ctx.Err()
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

// Close stops admission: subsequent Submits return ErrClosed, queued jobs
// drain, and the partition engines finish once their in-flight work
// completes. Close never interrupts running jobs — cancel the Config.Ctx
// for that. Safe to call more than once and concurrently with Submit.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		for _, p := range s.parts {
			p.mu.Lock()
			p.closed = true
			close(p.queue)
			p.mu.Unlock()
		}
	})
}

// Wait blocks until every partition engine (and the driver, if attached)
// has exited, then returns the merged run summary. Submit-driven servers
// must Close first — without it the engines wait for more jobs forever.
// If the server's context was cancelled, Wait returns ctx.Err(); a
// partition failure returns the lowest-index partition's error; a
// Config.Source job that Submit rejected returns that error with the job's
// ID. Wait is idempotent.
func (s *Server) Wait() (*Summary, error) {
	s.waitOnce.Do(func() {
		s.wg.Wait()
		if err := s.ctx.Err(); err != nil {
			s.waitErr = err
			return
		}
		for _, p := range s.parts {
			if p.err != nil {
				s.waitErr = fmt.Errorf("serve: partition %d: %w", p.idx, p.err)
				return
			}
		}
		if s.driveErr != nil {
			s.waitErr = s.driveErr
			return
		}
		s.summary = s.buildSummary()
	})
	return s.summary, s.waitErr
}

// buildSummary merges per-partition results in canonical ascending order.
func (s *Server) buildSummary() *Summary {
	stats := make([]*sched.RunStats, len(s.parts))
	sketch := metrics.NewSketch(s.cfg.Alpha)
	sum := &Summary{Partitions: len(s.parts), Wall: time.Since(s.start)}
	for i, p := range s.parts {
		stats[i] = p.stats
		p.tmu.Lock()
		sketch.Merge(p.sketch)
		p.tmu.Unlock()
		sum.Jobs += p.done.Load()
		if d := p.depthMax.Load(); d > sum.MaxQueueDepth {
			sum.MaxQueueDepth = d
		}
	}
	merged := sched.MergeShardStats(s.cfg.Sim, len(s.parts), stats)
	sum.Events = merged.Events
	sum.Makespan = merged.Makespan
	sum.MeanUtilization = merged.MeanUtilization
	sum.EstimatorAccuracy = merged.EstimatorAccuracy
	sum.fillLatency(sketch)
	return sum
}

// recycler is the cross-goroutine hand-back lane for finished jobs: the
// partition engines put, the single driver goroutine drains into the
// source's pool (trace.Stream is not safe for concurrent use, so only the
// driver ever touches it).
type recycler struct {
	rel  sched.Releaser
	mu   sync.Mutex
	jobs []*task.Job
}

func (r *recycler) put(j *task.Job) {
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	r.mu.Unlock()
}

// drain swaps the accumulated jobs out, reusing buf's capacity.
func (r *recycler) drain(buf []*task.Job) []*task.Job {
	r.mu.Lock()
	out := r.jobs
	r.jobs = buf[:0]
	r.mu.Unlock()
	return out
}

// Snapshot is the live telemetry read: queue and progress gauges plus the
// canonical cross-partition merge of the latency sketch. Gauges are
// observational — their values depend on when, in wall clock, the snapshot
// lands — while the final Summary's virtual-time fields are deterministic.
type Snapshot struct {
	Submitted, Done                              uint64
	QueueDepth                                   int64
	VirtualNow                                   float64 // furthest partition's simulation clock
	Utilization                                  float64 // slot-weighted mean of partition utilizations
	P50, P95, P99, P999, MeanLatency, MaxLatency float64
}

// Snapshot reports the service's current telemetry. Safe from any
// goroutine, any time between New and after Wait.
func (s *Server) Snapshot() Snapshot {
	var snap Snapshot
	sketch := metrics.NewSketch(s.cfg.Alpha)
	var utilWeighted float64
	var slots int
	for _, p := range s.parts {
		snap.Submitted += p.submitted.Load()
		snap.Done += p.done.Load()
		snap.QueueDepth += p.depth.Load()
		if v := math.Float64frombits(p.vnowBits.Load()); v > snap.VirtualNow {
			snap.VirtualNow = v
		}
		utilWeighted += math.Float64frombits(p.utilBits.Load()) * float64(p.slots)
		slots += p.slots
		p.tmu.Lock()
		c := p.sketch.Clone()
		p.tmu.Unlock()
		sketch.Merge(c)
	}
	if slots > 0 {
		snap.Utilization = utilWeighted / float64(slots)
	}
	snap.P50 = sketch.Quantile(0.50)
	snap.P95 = sketch.Quantile(0.95)
	snap.P99 = sketch.Quantile(0.99)
	snap.P999 = sketch.Quantile(0.999)
	if n := sketch.Count(); n > 0 {
		snap.MeanLatency = sketch.Sum() / float64(n)
	}
	snap.MaxLatency = sketch.Max()
	return snap
}

// Summary is the final report of a serve run. Every virtual-time field —
// Jobs, Events, Makespan, MeanUtilization, the latency quantiles — is
// deterministic for a fixed (Config.Sim.Seed, Partitions, job sequence);
// MaxQueueDepth and Wall are wall-clock observations.
type Summary struct {
	Jobs              uint64
	Events            uint64
	Makespan          float64
	MeanUtilization   float64
	EstimatorAccuracy float64
	Partitions        int

	// Job latency (completion minus arrival, virtual time units) SLO
	// quantiles, within the sketch's relative-error guarantee; Min/Max are
	// exact.
	P50, P95, P99, P999                 float64
	MeanLatency, MinLatency, MaxLatency float64

	MaxQueueDepth int64
	Wall          time.Duration
}

func (sum *Summary) fillLatency(sk *metrics.Sketch) {
	sum.P50 = sk.Quantile(0.50)
	sum.P95 = sk.Quantile(0.95)
	sum.P99 = sk.Quantile(0.99)
	sum.P999 = sk.Quantile(0.999)
	if n := sk.Count(); n > 0 {
		sum.MeanLatency = sk.Sum() / float64(n)
	}
	sum.MinLatency = sk.Min()
	sum.MaxLatency = sk.Max()
}
