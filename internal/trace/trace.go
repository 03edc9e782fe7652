// Package trace generates the synthetic Facebook and Bing workloads the
// evaluation runs on. The production traces (Table 1: 575K Hadoop jobs at
// Facebook, 500K Dryad jobs at Bing) are proprietary; following the
// substitution rule in DESIGN.md we reproduce the statistical properties the
// paper actually exploits:
//
//   - heavy-tailed job sizes spanning the paper's three bins (<50, 51–500,
//     >500 tasks), with Bing skewing larger than Facebook;
//   - Pareto(β≈1.259) task durations (the simulator injects the tail; the
//     trace carries per-task intrinsic work);
//   - Poisson arrivals at a configurable offered load;
//   - deadline and error bounds assigned exactly as §6.1 describes:
//     deadlines at a uniform 2–20% factor over the job's calibrated ideal
//     duration, error bounds uniform in 5–30%;
//   - Hadoop vs Spark regimes, differing in task scale (Spark's in-memory
//     inputs make tasks roughly an order of magnitude shorter).
package trace

import (
	"fmt"
	"math"
	"strings"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/task"
)

// Workload selects the production trace being mimicked.
type Workload int

const (
	// Facebook mimics the Hadoop trace from Facebook (Oct 2012).
	Facebook Workload = iota
	// Bing mimics the Dryad trace from Microsoft Bing (May–Dec 2011).
	Bing
)

// String returns the workload name.
func (w Workload) String() string {
	switch w {
	case Facebook:
		return "Facebook"
	case Bing:
		return "Bing"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// ParseWorkload resolves a workload name ("facebook"/"fb", "bing").
func ParseWorkload(s string) (Workload, error) {
	switch strings.ToLower(s) {
	case "facebook", "fb":
		return Facebook, nil
	case "bing":
		return Bing, nil
	default:
		return 0, fmt.Errorf("trace: unknown workload %q", s)
	}
}

// Framework selects the execution-engine regime.
type Framework int

const (
	// Hadoop reads inputs from disk (HDFS): long tasks.
	Hadoop Framework = iota
	// Spark reads in-memory RDDs: tasks roughly 10× shorter, which makes
	// straggler impact "more distinct" (§6.2.1).
	Spark
)

// String returns the framework name.
func (f Framework) String() string {
	switch f {
	case Hadoop:
		return "Hadoop"
	case Spark:
		return "Spark"
	default:
		return fmt.Sprintf("Framework(%d)", int(f))
	}
}

// ParseFramework resolves a framework name ("hadoop", "spark").
func ParseFramework(s string) (Framework, error) {
	switch strings.ToLower(s) {
	case "hadoop":
		return Hadoop, nil
	case "spark":
		return Spark, nil
	default:
		return 0, fmt.Errorf("trace: unknown framework %q", s)
	}
}

// BoundMode selects how jobs are bounded.
type BoundMode int

const (
	// DeadlineBound assigns every job a deadline at a uniform 2–20% factor
	// over its ideal duration.
	DeadlineBound BoundMode = iota
	// ErrorBound assigns every job an error tolerance uniform in 5–30%.
	ErrorBound
	// ExactBound gives every job a zero error bound (exact computation).
	ExactBound
	// MixedBound draws each job's bound kind independently — 45% deadline,
	// 45% error, 10% exact — approximating a production cluster that serves
	// every query class at once. This is the workload the million-job
	// streaming replays run.
	MixedBound
)

// ParseBound resolves a bound-mode name — the inverse of String, shared by
// every command-line frontend so a new mode is added in one place.
func ParseBound(s string) (BoundMode, error) {
	switch strings.ToLower(s) {
	case "deadline":
		return DeadlineBound, nil
	case "error":
		return ErrorBound, nil
	case "exact":
		return ExactBound, nil
	case "mixed":
		return MixedBound, nil
	default:
		return 0, fmt.Errorf("trace: unknown bound mode %q", s)
	}
}

// String returns the bound-mode name.
func (b BoundMode) String() string {
	switch b {
	case DeadlineBound:
		return "deadline"
	case ErrorBound:
		return "error"
	case ExactBound:
		return "exact"
	case MixedBound:
		return "mixed"
	default:
		return fmt.Sprintf("BoundMode(%d)", int(b))
	}
}

// Config parameterizes trace generation.
type Config struct {
	Workload  Workload
	Framework Framework
	Bound     BoundMode
	// Jobs is the number of jobs to generate.
	Jobs int
	// Slots is the cluster slot count, used to calibrate ideal durations
	// (§6.1) and arrival spacing.
	Slots int
	// Load is the offered load in (0, ~1]: the fraction of cluster capacity
	// the trace's REAL work consumes (ideal work times workInflation, the
	// straggler model's mean copy-duration factor). Around 0.75 reproduces
	// a busy multi-tenant cluster with multi-waved jobs but stable queues.
	Load float64
	// DAGLength forces every job's phase count (1 = input only). 0 means 1.
	DAGLength int
	// DeadlineFactorRange overrides the §6.1 default of [0.02, 0.20].
	DeadlineFactorRange [2]float64
	// ErrorRange overrides the §6.1 default of [0.05, 0.30].
	ErrorRange [2]float64
	// Seed drives generation.
	Seed int64
}

// DefaultConfig returns a trace configuration matching §6.1 for the given
// workload, framework and bound mode.
func DefaultConfig(w Workload, f Framework, b BoundMode) Config {
	return Config{
		Workload:            w,
		Framework:           f,
		Bound:               b,
		Jobs:                300,
		Slots:               400,
		Load:                0.75,
		DeadlineFactorRange: [2]float64{0.02, 0.20},
		ErrorRange:          [2]float64{0.05, 0.30},
		Seed:                1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Jobs <= 0 {
		return fmt.Errorf("trace: %d jobs", c.Jobs)
	}
	if c.Slots <= 0 {
		return fmt.Errorf("trace: %d slots", c.Slots)
	}
	// The float checks reject NaN explicitly: it fails every ordered
	// comparison, so a plain range check would pass it on to the arrival
	// spacing and the bound draws.
	if math.IsNaN(c.Load) || c.Load <= 0 || c.Load > 2 {
		return fmt.Errorf("trace: load %v out of (0, 2]", c.Load)
	}
	if c.DAGLength < 0 {
		return fmt.Errorf("trace: negative DAG length %d", c.DAGLength)
	}
	if c.Bound < DeadlineBound || c.Bound > MixedBound {
		return fmt.Errorf("trace: unknown bound mode %d", int(c.Bound))
	}
	if !finiteRange(c.DeadlineFactorRange) || c.DeadlineFactorRange[0] < 0 || c.DeadlineFactorRange[1] < c.DeadlineFactorRange[0] {
		return fmt.Errorf("trace: bad deadline factor range %v", c.DeadlineFactorRange)
	}
	if !finiteRange(c.ErrorRange) || c.ErrorRange[0] < 0 || c.ErrorRange[1] >= 1 || c.ErrorRange[1] < c.ErrorRange[0] {
		return fmt.Errorf("trace: bad error range %v", c.ErrorRange)
	}
	return nil
}

// finiteRange reports whether both endpoints are finite numbers.
func finiteRange(r [2]float64) bool {
	for _, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// taskScale returns the framework's mean intrinsic task work (median copy
// duration in simulation time units).
func (c Config) taskScale() float64 {
	if c.Framework == Spark {
		return 1
	}
	return 10
}

// binMix returns the probability of drawing a job from each size bin.
// Facebook's mix is dominated by small interactive jobs; Bing's Dryad
// workload skews a little larger.
func (c Config) binMix() [3]float64 {
	if c.Workload == Bing {
		return [3]float64{0.40, 0.38, 0.22}
	}
	return [3]float64{0.48, 0.36, 0.16}
}

// Generate produces the trace: jobs sorted by arrival with bounds assigned
// per §6.1. It is the materializing wrapper around Stream — same seed, same
// jobs — for callers that want the whole trace in memory; replays at the
// paper's trace sizes should drive the simulator from a Stream instead.
func Generate(cfg Config) ([]*task.Job, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	jobs := make([]*task.Job, 0, cfg.Jobs)
	for {
		j, ok := s.Next()
		if !ok {
			return jobs, nil
		}
		jobs = append(jobs, j)
	}
}

// sampleSize draws a job's task count: a size bin by workload mix, then a
// log-uniform count within the bin.
func sampleSize(cfg Config, rng *dist.RNG) int {
	mix := cfg.binMix()
	u := rng.Float64()
	var lo, hi float64
	switch {
	case u < mix[0]:
		lo, hi = 5, 50
	case u < mix[0]+mix[1]:
		lo, hi = 51, 500
	default:
		lo, hi = 501, 3000
	}
	// Log-uniform within the bin keeps small sizes common.
	v := math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	n := int(v)
	if n < int(lo) {
		n = int(lo)
	}
	if n > int(hi) {
		n = int(hi)
	}
	return n
}

// AssignBound sets the job's approximation bound per §6.1 — the same rules
// synthetic generation uses, exported so trace importers (internal/traceio)
// can bound real-trace jobs identically: MixedBound draws the class first
// (45% deadline / 45% error / 10% exact), error bounds are uniform in
// cfg.ErrorRange, and deadlines sit a uniform cfg.DeadlineFactorRange factor
// over the job's calibrated ideal duration on a cfg.Slots-slot cluster.
// Only Bound, ErrorRange, DeadlineFactorRange and Slots are consulted, and
// cfg is only read.
func AssignBound(cfg *Config, j *task.Job, rng *dist.RNG) {
	assignBound(cfg, cfg.Bound, j, rng)
}

// assignBound sets the job's approximation bound per §6.1 under mode, which
// stands for cfg.Bound: a mixed draw recurses with the drawn class, leaving
// cfg as it is.
func assignBound(cfg *Config, mode BoundMode, j *task.Job, rng *dist.RNG) {
	switch mode {
	case MixedBound:
		// One extra draw picks the job's class; the class then consumes
		// exactly the draws it would in its dedicated mode.
		switch u := rng.Float64(); {
		case u < 0.45:
			mode = DeadlineBound
		case u < 0.90:
			mode = ErrorBound
		default:
			mode = ExactBound
		}
		assignBound(cfg, mode, j, rng)
	case ErrorBound:
		eps := cfg.ErrorRange[0] + rng.Float64()*(cfg.ErrorRange[1]-cfg.ErrorRange[0])
		j.Bound = task.NewError(eps)
	case ExactBound:
		j.Bound = task.Exact()
	default:
		// Ideal duration: every task at the median duration, on the job's
		// fair share of the cluster. In a multi-tenant cluster a job rarely
		// holds every slot; half the cluster approximates the share a
		// sizable job gets under fair scheduling — and because the ideal
		// substitutes the *median* duration for every task, the resulting
		// deadlines are aggressive against real straggler-inflated
		// executions, exactly the paper's intent.
		share := cfg.Slots / 2
		if share < 1 {
			share = 1
		}
		if n := j.NumTasks(); n < share {
			share = n
		}
		med := dist.Median(j.InputWork)
		waves := math.Ceil(float64(j.NumTasks()) / float64(share))
		ideal := waves * med
		factor := cfg.DeadlineFactorRange[0] +
			rng.Float64()*(cfg.DeadlineFactorRange[1]-cfg.DeadlineFactorRange[0])
		j.Bound = task.NewDeadline(ideal * (1 + factor))
		j.DeadlineFactor = factor
		j.IdealDuration = ideal
	}
}

// Source is the streaming admission contract a workload generator or
// importer satisfies: jobs one at a time, in non-decreasing arrival order.
// It is structurally identical to sched.Source — Stream implements it, and
// so do internal/traceio's real-trace readers — declared here too so trace
// consumers (converters) need not depend on the scheduler.
type Source interface {
	// Next returns the next job, or (nil, false) when the trace ends.
	Next() (*task.Job, bool)
}

// Releaser is the job-recycling half of the contract, mirroring
// sched.Releaser: a source that implements it gets each job handed back
// once the consumer is done with it.
type Releaser interface {
	Release(*task.Job)
}

// Stats summarizes a generated trace — the content of Table 1.
type Stats struct {
	Workload   Workload
	Framework  Framework
	Jobs       int
	TotalTasks int
	BinCounts  map[task.SizeBin]int
	MeanTasks  float64
	Span       float64 // arrival span of the trace
}

// Summarize computes trace statistics.
func Summarize(cfg Config, jobs []*task.Job) Stats {
	s := Stats{
		Workload:  cfg.Workload,
		Framework: cfg.Framework,
		Jobs:      len(jobs),
		BinCounts: make(map[task.SizeBin]int),
	}
	for _, j := range jobs {
		s.fold(j)
	}
	return s
}

// fold accumulates one job into the summary.
func (s *Stats) fold(j *task.Job) {
	s.TotalTasks += j.NumTasks()
	s.BinCounts[j.Bin()]++
	if j.Arrival > s.Span {
		s.Span = j.Arrival
	}
	if s.Jobs > 0 {
		s.MeanTasks = float64(s.TotalTasks) / float64(s.Jobs)
	}
}
