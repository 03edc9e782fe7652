// Package task defines the static description of analytics jobs: tasks with
// intrinsic work, DAG phases, approximation bounds (deadline / error / exact)
// and the job-size bins the paper's evaluation reports on.
package task

import (
	"fmt"
	"math"
)

// BoundKind distinguishes the two approximation dimensions of §2.1.
type BoundKind int

const (
	// DeadlineBound jobs maximize accuracy (fraction of input tasks
	// completed) within a time limit.
	DeadlineBound BoundKind = iota
	// ErrorBound jobs minimize the time to complete a (1−ε) fraction of
	// their input tasks. ε = 0 is an exact job.
	ErrorBound
)

// String returns the kind name.
func (k BoundKind) String() string {
	switch k {
	case DeadlineBound:
		return "deadline"
	case ErrorBound:
		return "error"
	default:
		return fmt.Sprintf("BoundKind(%d)", int(k))
	}
}

// Bound is a job's approximation bound.
type Bound struct {
	Kind BoundKind
	// Deadline is the time allowed after the job starts receiving slots
	// (DeadlineBound only).
	Deadline float64
	// Epsilon is the tolerated fraction of skipped input tasks in [0, 1)
	// (ErrorBound only). Zero means exact computation.
	Epsilon float64
}

// NewDeadline returns a deadline bound of d time units.
func NewDeadline(d float64) Bound {
	return Bound{Kind: DeadlineBound, Deadline: d}
}

// NewError returns an error bound of eps.
func NewError(eps float64) Bound {
	return Bound{Kind: ErrorBound, Epsilon: eps}
}

// Exact returns the bound for an exact computation (error bound of zero) —
// per the paper, exact jobs are subsumed as ε=0 error-bound jobs.
func Exact() Bound {
	return Bound{Kind: ErrorBound, Epsilon: 0}
}

// Validate reports whether the bound's parameters are sane.
func (b Bound) Validate() error {
	switch b.Kind {
	case DeadlineBound:
		if b.Deadline <= 0 || math.IsNaN(b.Deadline) || math.IsInf(b.Deadline, 0) {
			return fmt.Errorf("task: deadline %v must be positive and finite", b.Deadline)
		}
	case ErrorBound:
		if b.Epsilon < 0 || b.Epsilon >= 1 || math.IsNaN(b.Epsilon) {
			return fmt.Errorf("task: epsilon %v must be in [0, 1)", b.Epsilon)
		}
	default:
		return fmt.Errorf("task: unknown bound kind %d", int(b.Kind))
	}
	return nil
}

// TargetTasks returns how many of n input tasks must complete to satisfy an
// error bound: ceil(n × (1−ε)), at least 1 for n ≥ 1. For deadline bounds it
// returns n (all tasks are wanted; the deadline cuts execution off).
func (b Bound) TargetTasks(n int) int {
	if n <= 0 {
		return 0
	}
	if b.Kind == DeadlineBound {
		return n
	}
	t := int(math.Ceil(float64(n) * (1 - b.Epsilon)))
	if t < 1 {
		t = 1
	}
	if t > n {
		t = n
	}
	return t
}

// Phase describes one intermediate DAG phase (e.g. reduce or join) that runs
// after the input phase completes its required fraction (§5.2).
type Phase struct {
	// NumTasks is the phase's task count (typically much smaller than the
	// input phase).
	NumTasks int
	// WorkScale is the mean intrinsic work of a phase task.
	WorkScale float64
}

// Job is the static description of one analytics job.
type Job struct {
	// ID identifies the job within a trace.
	ID int
	// Arrival is the submission time.
	Arrival float64
	// InputWork holds the intrinsic work (normalized data size × processing
	// cost) of each input task. len(InputWork) is the input task count.
	InputWork []float64
	// Phases are the intermediate DAG phases after the input phase, in
	// execution order. Empty for single-phase jobs; a "DAG length" of L in
	// the paper's Figure 9 means len(Phases) == L−1.
	Phases []Phase
	// Bound is the approximation bound.
	Bound Bound
	// DeadlineFactor records how the deadline was calibrated: the fraction
	// added on top of the job's ideal duration (§6.1 sets it uniformly in
	// [2%, 20%]). Zero for error-bound jobs. Used to bin Figure 6a.
	DeadlineFactor float64
	// IdealDuration is the calibrated ideal job duration the deadline was
	// derived from (median task duration substituted for every task).
	IdealDuration float64
}

// NumTasks returns the input-phase task count — the count the paper bins and
// measures accuracy over.
func (j *Job) NumTasks() int { return len(j.InputWork) }

// DAGLength returns the total number of phases including the input phase.
func (j *Job) DAGLength() int { return 1 + len(j.Phases) }

// TotalWork returns the summed intrinsic work of all input tasks.
func (j *Job) TotalWork() float64 {
	s := 0.0
	for _, w := range j.InputWork {
		s += w
	}
	return s
}

// Validate checks the job description: work and work scales must be
// finite and positive, the arrival finite and non-negative.
func (j *Job) Validate() error {
	if len(j.InputWork) == 0 {
		return fmt.Errorf("task: job %d has no input tasks", j.ID)
	}
	for i, w := range j.InputWork {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("task: job %d input task %d has invalid work %v", j.ID, i, w)
		}
	}
	for i, p := range j.Phases {
		if p.NumTasks <= 0 {
			return fmt.Errorf("task: job %d phase %d has %d tasks", j.ID, i, p.NumTasks)
		}
		if p.WorkScale <= 0 || math.IsNaN(p.WorkScale) || math.IsInf(p.WorkScale, 0) {
			return fmt.Errorf("task: job %d phase %d has work scale %v", j.ID, i, p.WorkScale)
		}
	}
	if j.Arrival < 0 || math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) {
		return fmt.Errorf("task: job %d has invalid arrival %v", j.ID, j.Arrival)
	}
	return j.Bound.Validate()
}

// SizeBin is the paper's job-size classification (§6.1).
type SizeBin int

const (
	// Small jobs have < 50 tasks.
	Small SizeBin = iota
	// Medium jobs have 51–500 tasks (50 exactly counts as small's upper
	// boundary; the paper's bins are "<50", "51-500", ">501" — we treat
	// [0,50] as small, (50,500] as medium, (500,∞) as large).
	Medium
	// Large jobs have > 500 tasks.
	Large
)

// AllBins lists the bins in display order.
var AllBins = []SizeBin{Small, Medium, Large}

// String returns the paper's bin label.
func (b SizeBin) String() string {
	switch b {
	case Small:
		return "<50"
	case Medium:
		return "51-500"
	case Large:
		return ">500"
	default:
		return fmt.Sprintf("SizeBin(%d)", int(b))
	}
}

// BinOf classifies a task count.
func BinOf(numTasks int) SizeBin {
	switch {
	case numTasks <= 50:
		return Small
	case numTasks <= 500:
		return Medium
	default:
		return Large
	}
}

// Bin classifies the job by its input task count.
func (j *Job) Bin() SizeBin { return BinOf(j.NumTasks()) }
