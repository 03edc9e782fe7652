// Package grass is a from-scratch reproduction of GRASS (Ananthanarayanan
// et al., "GRASS: Trimming Stragglers in Approximation Analytics",
// NSDI 2014): speculation-aware scheduling for approximation jobs — jobs
// with deadline or error bounds that need only a subset of their tasks to
// complete.
//
// The package bundles:
//
//   - the GRASS speculation algorithm (Greedy Speculative and Resource
//     Aware Speculative scheduling with learned adaptive switching),
//   - the production baselines it was evaluated against (LATE, Mantri),
//   - a discrete-event cluster simulator with heavy-tailed stragglers,
//     fair sharing with preemption, deadline/error bounds and DAG jobs,
//   - synthetic Facebook/Bing workload generators, and
//   - the analytic model of the paper's Appendix A.
//
// Quick start:
//
//	jobs, _ := grass.GenerateTrace(grass.DefaultTraceConfig(
//	    grass.Facebook, grass.Hadoop, grass.DeadlineBound))
//	stats, _ := grass.SimulateJobs(grass.DefaultSimConfig(), "grass", jobs)
//	fmt.Println(grass.MeanAccuracy(stats.Results))
//
// Policy names accepted by SimulateJobs and NewPolicy: "grass",
// "grass-strawman", "grass-best1", "grass-best2util", "grass-best2acc",
// "gs", "ras", "late", "mantri", "nospec", "oracle".
package grass

import (
	"context"
	"fmt"
	"io/fs"

	"github.com/approx-analytics/grass/internal/cluster"
	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/exp"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/metrics"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/serve"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
	"github.com/approx-analytics/grass/internal/traceio"
)

// Core domain types.
type (
	// Job describes one analytics job: per-task work, DAG phases, bound.
	Job = task.Job
	// Bound is a job's approximation bound (deadline or error).
	Bound = task.Bound
	// BoundKind distinguishes deadline- from error-bound jobs.
	BoundKind = task.BoundKind
	// Phase is one intermediate DAG phase.
	Phase = task.Phase
	// SizeBin is the paper's job-size classification.
	SizeBin = task.SizeBin
	// JobResult is the outcome of one simulated job.
	JobResult = sched.JobResult
	// RunStats aggregates one simulation run.
	RunStats = sched.RunStats
	// SimConfig parameterizes the cluster simulator.
	SimConfig = sched.Config
	// ClusterConfig describes machines and slots.
	ClusterConfig = cluster.Config
	// FaultConfig is a deterministic fault schedule (SimConfig.Faults):
	// machine crash/restart, correlated rack slowdown storms, and
	// background-load interference. The zero value injects nothing and
	// costs nothing. Fault randomness lives in its own seed substream, so
	// enabling faults never perturbs the workload's own draws.
	FaultConfig = fault.Config
	// FaultStats counts the fault events a run's schedule applied
	// (RunStats.Faults; all zero on a benign run).
	FaultStats = sched.FaultStats
	// TraceConfig parameterizes synthetic workload generation.
	TraceConfig = trace.Config
	// GrassConfig tunes the GRASS policy family (ξ, factors, strawman).
	GrassConfig = core.Config
	// PolicyFactory builds per-job speculation policies.
	PolicyFactory = spec.Factory
	// Workload selects the mimicked production trace.
	Workload = trace.Workload
	// Framework selects the Hadoop or Spark regime.
	Framework = trace.Framework
	// BoundMode selects how generated jobs are bounded.
	BoundMode = trace.BoundMode
	// TraceStream generates a synthetic workload lazily, one job per Next,
	// with a pool for recycling finished jobs (StreamTrace builds one).
	TraceStream = trace.Stream
	// JobSource is a streaming admission source: jobs in arrival order, one
	// at a time. TraceStream implements it; so does any importer of real
	// cluster logs. Sources that also implement sched.Releaser get finished
	// jobs handed back for reuse.
	JobSource = sched.Source
)

// Workload, framework and bound-mode constants.
const (
	Facebook = trace.Facebook
	Bing     = trace.Bing

	Hadoop = trace.Hadoop
	Spark  = trace.Spark

	DeadlineBound = trace.DeadlineBound
	ErrorBound    = trace.ErrorBound
	ExactBound    = trace.ExactBound
	MixedBound    = trace.MixedBound
)

// Job-size bins (paper §6.1).
const (
	Small  = task.Small
	Medium = task.Medium
	Large  = task.Large
)

// NewDeadline returns a deadline bound of d time units.
func NewDeadline(d float64) Bound { return task.NewDeadline(d) }

// NewError returns an error bound tolerating fraction eps of skipped tasks.
func NewError(eps float64) Bound { return task.NewError(eps) }

// Exact returns a zero-error bound (exact computation).
func Exact() Bound { return task.Exact() }

// DefaultSimConfig returns the evaluation's simulator configuration: a
// 200-node cluster, β=1.259 straggler tails, estimator noise tuned to the
// paper's measured accuracies.
func DefaultSimConfig() SimConfig { return sched.DefaultConfig() }

// DefaultTraceConfig returns a §6.1-calibrated workload configuration.
func DefaultTraceConfig(w Workload, f Framework, b BoundMode) TraceConfig {
	return trace.DefaultConfig(w, f, b)
}

// DefaultGrassConfig returns the paper's GRASS configuration (ξ = 15%, all
// three switching factors).
func DefaultGrassConfig() GrassConfig { return core.DefaultConfig() }

// FaultScenario resolves a named fault preset ("crashy", "rack-storm",
// "contended", "overload-mixed"; "" and "none" mean no faults) to a
// FaultConfig for SimConfig.Faults or WithFaults.
func FaultScenario(name string) (FaultConfig, error) { return fault.Scenario(name) }

// FaultScenarios lists the fault preset names in stable order.
func FaultScenarios() []string { return fault.Scenarios() }

// WithFaults attaches a deterministic fault schedule to a simulation — a
// convenience over setting SimConfig.Faults directly, usable with every
// options-pattern entry point. Under SimulateTrace's partitioned model the
// schedule splits with the machines, so results stay byte-identical for
// any shard count at a fixed partition count.
func WithFaults(fc FaultConfig) SimOption { return func(o *simOptions) { o.faults = &fc } }

// NewPolicy resolves a policy name to a factory. The boolean result
// reports whether the policy needs oracle mode (ground-truth task views);
// set SimConfig.Oracle accordingly (SimulateJobs does this for you).
func NewPolicy(name string, seed int64) (PolicyFactory, bool, error) {
	return exp.NewFactory(name, seed)
}

// NewGrassPolicy builds a GRASS factory with a custom configuration
// (perturbation ξ, factor ablations, strawman switching).
func NewGrassPolicy(cfg GrassConfig) (PolicyFactory, error) {
	return core.New(cfg)
}

// GenerateTrace produces a synthetic workload: jobs sorted by arrival with
// §6.1-style deadline/error bounds. It is the materializing wrapper around
// StreamTrace — identical jobs for the same config — for workloads small
// enough to hold in memory.
func GenerateTrace(cfg TraceConfig) ([]*Job, error) {
	return trace.Generate(cfg)
}

// StreamTrace returns a lazy generator of the same workload GenerateTrace
// materializes: byte-identical jobs for the same config, emitted one at a
// time. Pass the stream to SimulateSource to replay traces at the paper's
// sizes (575K/500K jobs and beyond) in bounded memory.
func StreamTrace(cfg TraceConfig) (*TraceStream, error) {
	return trace.NewStream(cfg)
}

// SimOption configures the options-pattern entry points — SimulateTrace,
// SimulateJobs, SimulateSource and Serve — for simulations that want more
// than the positional defaults (sharded execution, streamed result
// folding, cancellation, a custom policy factory).
type SimOption func(*simOptions)

type simOptions struct {
	shards     int
	partitions int
	fold       func(JobResult)
	ctx        context.Context
	factory    PolicyFactory
	faults     *FaultConfig
}

// WithShards sets the number of worker goroutines executing the
// simulation's partitions. At a fixed partition count the shard count is
// pure execution parallelism: results are byte-identical for any value —
// it only changes wall clock. BUT when WithPartitions is not given, the
// partition count follows the shard count ("split k ways and run on k
// cores"), and the partition count IS model-visible — pass
// WithPartitions explicitly to vary worker counts against one model.
// Values above the partition count are clamped; 0 (the default) means
// one worker.
func WithShards(k int) SimOption { return func(o *simOptions) { o.shards = k } }

// WithPartitions sets the partition count — the sharded-execution MODEL:
// the cluster's machines and the trace are split into this many
// self-contained sub-simulations (fair sharing is scoped to a partition)
// whose outputs are merged deterministically. 1, the default, is the
// plain engine; 0 follows WithShards, so WithShards(4) alone means
// "split 4 ways and run on 4 cores". Results are comparable only at
// equal partition counts.
func WithPartitions(p int) SimOption { return func(o *simOptions) { o.partitions = p } }

// WithFold streams each job's result to fn instead of accumulating
// RunStats.Results, so nothing retained grows with the trace length. Under
// SimulateTrace the results arrive in ascending JobID order (the canonical
// sharded merge); under SimulateJobs/SimulateSource they arrive in
// completion order, exactly as the simulator finishes them.
func WithFold(fn func(JobResult)) SimOption { return func(o *simOptions) { o.fold = fn } }

// WithContext makes the simulation cancellable: once ctx is done the run
// stops promptly — the event loop checks between event batches, sharded
// workers stop claiming partitions — and the entry point returns ctx.Err().
// A cancelled run's partial work is discarded (an installed WithFold fn may
// have observed a prefix of the results); the engine's pooled state is
// abandoned consistently, so building a fresh simulation afterwards is
// always safe. A nil ctx (the default) disables checking.
func WithContext(ctx context.Context) SimOption { return func(o *simOptions) { o.ctx = ctx } }

// WithFactory runs the simulation under a custom policy factory instead of
// a named policy; the policy-name argument is ignored (pass ""). Oracle
// mode is NOT inferred — set SimConfig.Oracle yourself if the factory
// needs ground-truth views. Not supported by SimulateTrace, whose
// partitioned model must re-derive per-partition factories from seeds.
func WithFactory(f PolicyFactory) SimOption { return func(o *simOptions) { o.factory = f } }

// SimulateTrace generates cfg's synthetic workload lazily and simulates
// it under the named policy — the sharding-capable, options-pattern entry
// point. With no options it is SimulateSource over StreamTrace(tc):
// one partition, one worker, results accumulated. WithPartitions /
// WithShards partition the run across cores with a deterministic merge;
// the trace is consumed as per-partition shard streams, so no
// materialization happens at any partition count.
func SimulateTrace(sc SimConfig, tc TraceConfig, policy string, opts ...SimOption) (*RunStats, error) {
	var o simOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.factory != nil {
		return nil, fmt.Errorf("grass: WithFactory is not supported by SimulateTrace (partitions need seed-derived factories); use SimulateJobs or SimulateSource")
	}
	if o.shards <= 0 {
		o.shards = 1
	}
	if o.partitions <= 0 {
		o.partitions = o.shards
	}
	if o.faults != nil {
		sc.Faults = *o.faults
	}
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	_, oracleMode, err := exp.NewFactory(policy, sc.Seed)
	if err != nil {
		return nil, err
	}
	sc.Oracle = oracleMode
	run := sched.ShardedRun{
		Config:  sc,
		Parts:   o.partitions,
		Workers: o.shards,
		NewFactory: func(seed int64) (PolicyFactory, error) {
			f, _, err := exp.NewFactory(policy, seed)
			return f, err
		},
		NewSource: func(p int) (JobSource, error) {
			return trace.NewShardStream(tc, p, o.partitions)
		},
	}
	if o.fold != nil {
		run.OnResult = o.fold
		run.Jobs = tc.Jobs
	}
	run.Ctx = o.ctx
	return sched.RunSharded(run)
}

// SimulateJobs runs a materialized trace through the cluster simulator
// under the named policy. Oracle mode is enabled automatically for the
// "oracle" policy (unless WithFactory overrides the policy). Supports
// WithFold, WithContext and WithFactory; sharded execution (WithShards /
// WithPartitions) requires SimulateTrace, whose partitioner splits the
// trace by construction.
func SimulateJobs(cfg SimConfig, policy string, jobs []*Job, opts ...SimOption) (*RunStats, error) {
	o, err := collectUnshardedOptions("SimulateJobs", opts)
	if err != nil {
		return nil, err
	}
	return runSim(cfg, policy, jobs, nil, o)
}

// SimulateSource runs a streamed trace through the cluster simulator under
// the named policy. Results are identical to materializing the same
// trace and calling SimulateJobs; memory differs — the simulator holds
// only in-flight jobs (finished jobs are recycled when src implements
// sched.Releaser, as TraceStream does). Accepts the same options as
// SimulateJobs.
func SimulateSource(cfg SimConfig, policy string, src JobSource, opts ...SimOption) (*RunStats, error) {
	o, err := collectUnshardedOptions("SimulateSource", opts)
	if err != nil {
		return nil, err
	}
	return runSim(cfg, policy, nil, src, o)
}

// collectUnshardedOptions folds opts and rejects the sharded-execution
// options the single-engine entry points cannot honor — silently running
// an 8-partition request on one partition would change the model the
// caller asked for.
func collectUnshardedOptions(entry string, opts []SimOption) (simOptions, error) {
	var o simOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards > 1 || o.partitions > 1 {
		return o, fmt.Errorf("grass: %s runs one plain engine; sharded execution (WithShards/WithPartitions) requires SimulateTrace", entry)
	}
	return o, nil
}

// runSim is the single execution core behind SimulateJobs and
// SimulateSource, so the materialized and streamed paths cannot drift.
// Exactly one of jobs and src must be set. With o.factory nil the policy
// name is resolved (enabling oracle mode when the policy needs ground
// truth); otherwise the factory is used as given.
func runSim(cfg SimConfig, policy string, jobs []*Job, src JobSource, o simOptions) (*RunStats, error) {
	if o.faults != nil {
		cfg.Faults = *o.faults
	}
	factory := o.factory
	if factory == nil {
		f, oracleMode, err := exp.NewFactory(policy, cfg.Seed)
		if err != nil {
			return nil, err
		}
		factory = f
		cfg.Oracle = oracleMode
	}
	sim, err := sched.New(cfg, factory)
	if err != nil {
		return nil, err
	}
	if o.ctx != nil {
		sim.SetContext(o.ctx)
	}
	if o.fold != nil {
		sim.OnResult(o.fold)
	}
	if src != nil {
		return sim.RunSource(src)
	}
	return sim.Run(jobs)
}

// Service-mode types (see internal/serve for the full contract).
type (
	// ServeConfig parameterizes a live scheduler service.
	ServeConfig = serve.Config
	// Server is a running scheduler service: Submit jobs (or attach a
	// ServeConfig.Source driver), Snapshot live telemetry, Close admission,
	// Wait for the final SLO summary.
	Server = serve.Server
	// ServeSummary is a serve run's final report: job count, makespan,
	// utilization, and p50/p95/p99/p999 job-latency quantiles.
	ServeSummary = serve.Summary
	// ServeSnapshot is the live telemetry read: queue depth, progress
	// counters, utilization and running latency quantiles.
	ServeSnapshot = serve.Snapshot
	// Pace times a service's open-loop arrival driver.
	Pace = serve.Pace
	// PaceMode selects trace-timed or Poisson arrival timing.
	PaceMode = serve.PaceMode
)

// Arrival pacing modes for ServeConfig.Pace.
const (
	// TraceTimed keeps each job's own arrival time — a trace-timed serve
	// run is byte-identical to the offline replay of the same trace.
	TraceTimed = serve.TraceTimed
	// Poisson re-times jobs on an open-loop Poisson process of Pace.Rate
	// jobs per virtual-time unit.
	Poisson = serve.Poisson
)

// ErrServeClosed is returned by Server.Submit after admission closed.
var ErrServeClosed = serve.ErrClosed

// Serve starts a live scheduler service running the named policy: the
// long-running counterpart of SimulateSource, accepting jobs through
// Server.Submit (or an attached cfg.Source open-loop driver) and reporting
// p50/p95/p99/p999 job latency, queue depth and slot utilization while it
// runs. Virtual-time results are deterministic — a trace-timed serve run
// of a trace is byte-identical to replaying it — and cfg.Ctx cancels the
// whole service. If cfg.NewFactory is already set, the policy name is
// ignored (set cfg.Sim.Oracle yourself in that case).
func Serve(cfg ServeConfig, policy string) (*Server, error) {
	if cfg.NewFactory == nil {
		_, oracleMode, err := exp.NewFactory(policy, cfg.Sim.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Sim.Oracle = oracleMode
		cfg.NewFactory = func(seed int64) (PolicyFactory, error) {
			f, _, err := exp.NewFactory(policy, seed)
			return f, err
		}
	}
	return serve.New(cfg)
}

// MeanAccuracy averages job accuracies (the deadline-bound metric).
func MeanAccuracy(rs []JobResult) float64 { return metrics.MeanAccuracy(rs) }

// MeanDuration averages input-phase durations (the error-bound metric).
func MeanDuration(rs []JobResult) float64 { return metrics.MeanInputDuration(rs) }

// AccuracyImprovementPct is the relative accuracy gain of treat over base.
func AccuracyImprovementPct(base, treat []JobResult) float64 {
	return metrics.AccuracyImprovementPct(base, treat)
}

// SpeedupPct is the relative duration reduction of treat versus base.
func SpeedupPct(base, treat []JobResult) float64 {
	return metrics.SpeedupPct(base, treat)
}

// FilterBin keeps the results of one job-size bin.
func FilterBin(rs []JobResult, b SizeBin) []JobResult {
	return metrics.FilterBin(rs, b)
}

// Real-trace import (package traceio): typed, validating, streaming readers
// for production cluster logs, decoding into the same Job model the
// synthetic generators produce.
type (
	// TraceFormat identifies a supported real-trace file format.
	TraceFormat = traceio.Format
	// ImportOptions maps raw trace records onto the simulator's job model
	// (bytes per task, work scale, time scale, bound assignment).
	ImportOptions = traceio.Options
	// ImportStats summarizes a validation pass over an imported trace.
	ImportStats = traceio.ScanStats
	// ImportSource streams an imported trace as jobs in arrival order; it
	// implements JobSource, so SimulateSource replays real traces in
	// bounded memory. Check Err after the stream ends.
	ImportSource = traceio.Source
	// TracePosition locates a record (file, 1-based line, column) in an
	// imported trace; every import decode error carries one.
	TracePosition = traceio.Position
	// TraceDecodeError is a positioned import failure (errors.As target).
	TraceDecodeError = traceio.DecodeError
)

// Supported real-trace formats.
const (
	// SWIMTrace is the SWIM / Facebook workload-repository format: one job
	// per tab-separated line (id, submit time, inter-arrival, map input
	// bytes, shuffle bytes, output bytes).
	SWIMTrace = traceio.SWIM
	// GoogleTrace is the Google cluster-data v2 task_events table: one CSV
	// row per task event, grouped into jobs by SUBMIT events.
	GoogleTrace = traceio.GoogleTaskEvents
)

// ParseTraceFormat maps a flag value ("swim" | "google") to a TraceFormat.
func ParseTraceFormat(s string) (TraceFormat, error) { return traceio.ParseFormat(s) }

// DefaultImportOptions returns the documented default record→job mapping
// (128 MiB splits, §6.1-style mixed bounds).
func DefaultImportOptions() ImportOptions { return traceio.DefaultOptions() }

// ImportTrace opens a real cluster-trace file (".gz" transparently
// decompressed) and streams its jobs in arrival order with bounded memory.
// fsys nil means the host filesystem. Close the source when done; after the
// stream ends, its Err method reports the positioned decode error that cut
// it short, if any — run ScanTrace first to validate a file up front.
func ImportTrace(fsys fs.FS, path string, format TraceFormat, o ImportOptions) (*ImportSource, error) {
	return traceio.NewSource(fsys, path, format, o)
}

// ScanTrace validates every record of a trace file in bounded memory
// without simulating, returning summary statistics. The first malformed
// record fails with a TraceDecodeError carrying its file:line:column.
func ScanTrace(fsys fs.FS, path string, format TraceFormat, o ImportOptions) (*ImportStats, error) {
	return traceio.Scan(fsys, path, format, o)
}
