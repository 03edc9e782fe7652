// Package sched is the discrete-event cluster simulator that binds the
// substrates together: it admits jobs from a trace, splits slots max-min
// fairly across running jobs (the source of multi-waved execution, §2.1),
// asks each job's speculation policy what to launch when a slot frees, runs
// copies with i.i.d. heavy-tailed durations on heterogeneous machines, kills
// losing copies when the first finishes, enforces deadline and error bounds,
// sequences DAG phases (§5.2), and reports per-job results.
//
// The paper validates a trace-driven simulator against its 200-node EC2
// deployment; this package is that simulator, built from scratch.
package sched

import (
	"fmt"
	"math"

	"github.com/approx-analytics/grass/internal/cluster"
	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/estimate"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/task"
)

// Config parameterizes a simulation run.
type Config struct {
	// Cluster describes machines and slots.
	Cluster cluster.Config
	// Estimator configures t_rem/t_new noise. A policy factory that
	// implements spec.GroundTruth (the oracle) sees exact durations, so
	// its runs ignore the noise and leave the estimator untouched.
	Estimator estimate.Config
	// DurationBeta is the Pareto shape of the straggler tail of per-copy
	// duration factors. The paper's Hill estimate for production traces is
	// 1.259.
	DurationBeta float64
	// DurationCap truncates the duration factor at this multiple of the
	// median factor (traces are finite; DefaultConfig uses 30).
	DurationCap float64
	// TailFrac is the probability a copy draws from the straggler tail
	// instead of the predictable body around the median (Figure 3 shows the
	// production distribution is "not exactly Pareto in its body" — only
	// the tail is). 1 gives a pure Pareto factor (the AblationTail bench).
	TailFrac float64
	// TailStart is where the straggler tail begins, in multiples of the
	// median copy duration (default 1.5).
	TailStart float64
	// IntermediateBeta is the (lighter) tail for intermediate-phase tasks,
	// which the paper notes "have relatively fewer stragglers" (§5.2).
	IntermediateBeta float64
	// MinSpecProgress is the progress fraction a copy must report before the
	// task becomes eligible for speculation (§5: progress reports every 5%
	// of data; schedulers cannot estimate t_rem for a copy that has not
	// reported). Default 0.15.
	MinSpecProgress float64
	// Seed drives all randomness; identical seeds with identical traces
	// replay identical stragglers, so policy comparisons are paired.
	Seed int64
	// MaxEvents guards against runaway simulations (default 50M).
	MaxEvents uint64
	// Faults is the deterministic fault schedule (machine crash/restart,
	// rack slowdown storms, background-load interference). The zero value
	// injects nothing and costs nothing: fault randomness lives in its own
	// seed substream, so a fault-free run is byte-identical to a build
	// without the feature.
	Faults fault.Config
}

// DefaultConfig returns the configuration used throughout the evaluation:
// a 200-node cluster (the paper's EC2 testbed size) with 2 slots per node,
// β=1.259 task-duration tails, and estimator noise tuned to the paper's
// measured ~72%/76% accuracies.
func DefaultConfig() Config {
	return Config{
		Cluster: cluster.Config{
			Machines:           200,
			SlotsPerMachine:    2,
			HeterogeneitySigma: 0.2,
		},
		Estimator: estimate.Config{
			// Injected noise models only the estimator's own error
			// (progress extrapolation, input-size normalization). The
			// irreducible unpredictability of straggler luck is already in
			// the realized durations, and scoring against those reproduces
			// the paper's measured ~72%/76% accuracies.
			TRemNoise: 0.4,
			TNewNoise: 0.15,
			Prior:     1,
		},
		DurationBeta:     1.259,
		DurationCap:      30,
		TailFrac:         0.25,
		TailStart:        1.5,
		IntermediateBeta: 2.5,
		MinSpecProgress:  0.15,
		Seed:             1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if err := c.Estimator.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	// Every float bound below rejects NaN explicitly: NaN fails all ordered
	// comparisons, so a range check alone waves it straight into the
	// samplers (the bug class cluster.Config.Validate had with a NaN
	// heterogeneity sigma).
	if !finitePositive(c.DurationBeta) {
		return fmt.Errorf("sched: duration beta %v", c.DurationBeta)
	}
	if math.IsNaN(c.DurationCap) || c.DurationCap <= 1 {
		return fmt.Errorf("sched: duration cap %v must exceed 1 (median multiples)", c.DurationCap)
	}
	if math.IsNaN(c.TailFrac) || c.TailFrac <= 0 || c.TailFrac > 1 {
		return fmt.Errorf("sched: tail fraction %v out of (0, 1]", c.TailFrac)
	}
	// The intermediate-phase distribution always halves TailFrac into a
	// body-tail mixture, so TailStart must be sane even when TailFrac == 1
	// selects a pure Pareto for input tasks. A +Inf tail start would pass a
	// "> 1" check but puts the tail beyond every cap.
	if math.IsNaN(c.TailStart) || math.IsInf(c.TailStart, 0) || c.TailStart <= 1 {
		return fmt.Errorf("sched: tail start %v must exceed the median (1) and be finite", c.TailStart)
	}
	if !finitePositive(c.IntermediateBeta) {
		return fmt.Errorf("sched: intermediate beta %v", c.IntermediateBeta)
	}
	if math.IsNaN(c.MinSpecProgress) || c.MinSpecProgress < 0 || c.MinSpecProgress >= 1 {
		return fmt.Errorf("sched: min speculation progress %v out of [0, 1)", c.MinSpecProgress)
	}
	return nil
}

// finitePositive reports v ∈ (0, +Inf) excluding NaN — the shape every
// Pareto-beta parameter must have.
func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// JobResult is the outcome of one job.
type JobResult struct {
	// JobID echoes the trace job ID.
	JobID int
	// NumTasks is the input task count; Bin its paper bin.
	NumTasks int
	Bin      task.SizeBin
	// Kind, Deadline, Epsilon echo the bound.
	Kind     task.BoundKind
	Deadline float64
	Epsilon  float64
	// DeadlineFactor echoes the trace's deadline calibration factor (§6.1).
	DeadlineFactor float64
	// DAGLength is the total phase count.
	DAGLength int
	// Accuracy is the fraction of input tasks completed when the bound was
	// enforced. Deadline jobs: fraction at the (input) deadline. Error-bound
	// jobs: their target fraction (they run until they reach it).
	Accuracy float64
	// Duration is the job's completion time minus arrival. For deadline
	// jobs whose deadline cut them off this is the full span including
	// intermediate phases.
	Duration float64
	// InputDuration is the input phase's span (arrival to bound
	// enforcement), the quantity Figures 7/11/14 speed up.
	InputDuration float64
	// Launched counts every copy launched; Speculative counts the
	// speculative ones; Killed counts copies killed by a sibling finishing;
	// Preempted counts copies this job lost to fair-share preemption; Lost
	// counts copies killed by machine crashes — unlike Preempted, the
	// scheduler chose neither the victim nor the moment, and the lost
	// task respeculates through the ordinary dispatch path.
	Launched, Speculative, Killed, Preempted, Lost int
	// StragglerRatio is the job's slowest completed input-task duration
	// over the median (the paper reports ~8× in production).
	StragglerRatio float64
}

// RunStats aggregates a simulation run.
type RunStats struct {
	// Results holds one entry per job in arrival order.
	Results []JobResult
	// Makespan is the time the last job finished.
	Makespan float64
	// MeanUtilization is the time-averaged slot utilization.
	MeanUtilization float64
	// Events is the number of simulator events fired.
	Events uint64
	// EstimatorAccuracy is the measured combined estimation accuracy at the
	// end of the run (§5.1 reports ~74%).
	EstimatorAccuracy float64
	// Faults counts the fault events the run's schedule applied (all zero
	// without a fault schedule).
	Faults FaultStats
}

// medianFactorXm returns the Pareto scale xm that makes a pure Pareto
// factor distribution's median exactly 1, so a task's work equals its
// median copy duration: median = xm·2^(1/β)  ⇒  xm = 2^(−1/β).
func medianFactorXm(beta float64) float64 {
	return math.Pow(2, -1/beta)
}

// newFactorDist builds the copy-duration factor distribution: a body-tail
// mixture with median ≈ 1, or a pure truncated Pareto with median 1 when
// tailFrac == 1.
func newFactorDist(beta, cap, tailFrac, tailStart float64) (dist.Sampler, error) {
	if tailFrac >= 1 {
		xm := medianFactorXm(beta)
		tp, err := dist.NewTruncatedPareto(xm, beta, cap)
		if err != nil {
			return nil, err
		}
		return tp, nil
	}
	bt, err := dist.NewBodyTail(0.6, 1.4, tailStart, beta, cap, tailFrac)
	if err != nil {
		return nil, err
	}
	return bt, nil
}
