// Package spec defines the speculation policy interface and implements the
// paper's two building blocks — Greedy Speculative (GS) and Resource Aware
// Speculative (RAS) scheduling, Pseudocode 1 and 2 — together with the
// production baselines LATE and Mantri and a no-speculation control.
//
// A Policy answers one question: given a vacant slot and the job's unfinished
// tasks (with estimated remaining times t_rem and fresh-copy times t_new),
// which task should the slot run next — an unscheduled task or a speculative
// copy of a running one?
package spec

import (
	"github.com/approx-analytics/grass/internal/task"
)

// TaskView is a policy's view of one unfinished task. All durations are
// estimates supplied by the scheduler's estimator (the oracle scheduler
// supplies ground truth instead).
type TaskView struct {
	// Index is the task's index within its job.
	Index int
	// Running reports whether at least one copy is currently executing.
	Running bool
	// Copies is the number of currently running copies (c in the paper's
	// saving formula).
	Copies int
	// Speculable reports whether the task is eligible for a speculative
	// copy: its best copy has reported enough progress for a remaining-time
	// estimate to exist (§5's progress reports arrive every 5% of data; a
	// copy that just started has no t_rem). Always true in oracle mode.
	Speculable bool
	// TRem is the estimated remaining duration of the earliest-finishing
	// running copy. Meaningless when !Running.
	TRem float64
	// TNew is the estimated duration of a fresh copy.
	TNew float64
	// Elapsed is how long the oldest running copy has been executing.
	Elapsed float64
	// Progress is the fraction of work the best copy has completed, from
	// task progress reports (§5). In [0, 1).
	Progress float64
}

// Saving is the paper's resource-savings criterion for speculating a running
// task with c copies: c×t_rem − (c+1)×t_new. Positive means a speculative
// copy is expected to save both time and resources.
func (v TaskView) Saving() float64 {
	return float64(v.Copies)*v.TRem - float64(v.Copies+1)*v.TNew
}

// Ctx carries job- and cluster-level state into a scheduling decision.
type Ctx struct {
	// Kind is the job's approximation bound type.
	Kind task.BoundKind
	// RemainingTime is the time left to the deadline (δ' in Pseudocode 1).
	// Only meaningful for deadline-bound jobs.
	RemainingTime float64
	// TargetTasks is the number of input tasks the job must complete to meet
	// its bound (for deadline jobs this is the total task count).
	TargetTasks int
	// CompletedTasks counts finished input tasks.
	CompletedTasks int
	// TotalTasks is the job's input task count.
	TotalTasks int
	// WaveWidth is the number of slots currently allotted to the job — the
	// wave width the theory section's W = T/S refers to.
	WaveWidth int
	// RunningCopies is the number of copies (original + speculative) the job
	// has executing right now.
	RunningCopies int
	// SpeculativeCopies is how many of those are speculative (copy ≥ 2 of a
	// task).
	SpeculativeCopies int
	// Utilization is the cluster-wide slot utilization in [0, 1].
	Utilization float64
	// EstimationAccuracy is the measured accuracy of the estimator feeding
	// TRem/TNew (§5.1), in [0, 1].
	EstimationAccuracy float64
	// Now is the current simulation time.
	Now float64
}

// Remaining returns how many more tasks the job needs to meet its bound.
func (c Ctx) Remaining() int {
	r := c.TargetTasks - c.CompletedTasks
	if r < 0 {
		return 0
	}
	return r
}

// Decision names the task to launch and whether the launch is a speculative
// copy of an already-running task.
type Decision struct {
	TaskIndex   int
	Speculative bool
}

// Policy picks the next copy to launch for one job. Implementations must be
// deterministic given the same inputs. A Policy instance may be stateful and
// is owned by a single job. Pick is the executable reference: the
// scheduler decides through IncrementalPolicy, which every policy it runs
// must also implement, and its differential tests hold PickIncremental to
// Pick.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick returns the next launch, or ok=false to leave the slot idle (for
	// this job) — e.g. when no candidate can finish before the deadline.
	// tasks contains only unfinished tasks and is never reordered by the
	// caller between calls; implementations must not mutate it.
	Pick(ctx Ctx, tasks []TaskView) (Decision, bool)
}

// IncrementalPolicy is the delta-aware form of a Policy, and the form the
// scheduler requires: admitting a job whose policy lacks it panics. The
// scheduler keeps a ViewSet alive across events — re-deriving, before the
// next launch attempt, only the records of tasks an event touched (copy
// launch/finish/preemption), while views are evaluated on read at the
// attempt's clock and t_new median — and the policy selects from the
// maintained orderings and the attempt's running views instead of
// rescanning every task.
//
// The contract mirrors Pick exactly: given the same job state,
// PickIncremental must return the identical Decision (including
// first-wins index tie-breaks) that Pick would return for the equivalent
// freshly built view slice — Pick stays the executable reference, and the
// scheduler's differential tests hold implementations to it. The ViewSet
// is refreshed by the scheduler before each call; implementations must
// not mutate it and may not retain it across calls.
type IncrementalPolicy interface {
	Policy
	// PickIncremental returns the next launch, or ok=false to leave the
	// slot idle, selecting from the incrementally maintained candidate
	// state instead of a rebuilt view slice.
	PickIncremental(ctx Ctx, vs *ViewSet) (Decision, bool)
}

// Observer is an optional interface for policies that learn from job
// outcomes (GRASS's sample collection). The scheduler calls OnJobEnd exactly
// once per job.
type Observer interface {
	// OnJobEnd reports the job's final performance: for deadline jobs, acc
	// is the achieved accuracy and dur the deadline; for error-bound jobs,
	// acc is 1 and dur the completion time.
	OnJobEnd(ctx Ctx, acc, dur float64)
}

// ProgressObserver is an optional interface for policies that track the
// completion curve of a job while it runs (GRASS's learner records
// tasks-completed-versus-time samples this way).
type ProgressObserver interface {
	// OnTaskComplete fires when an input task finishes; completed is the new
	// completion count and t the simulation time since the job started.
	OnTaskComplete(completed int, t float64)
}

// LearnedState is an opaque snapshot of a factory's cross-job learned
// state (GRASS's sample store). Implementations must merge exactly and
// commutatively — integer-count sketch state, not floating-point
// accumulations — so per-partition states fold deterministically in the
// sharded runner's canonical ascending-partition order and the folded
// state is indistinguishable from a single factory having seen every
// sample.
type LearnedState interface {
	// MergeLearned folds o — a state exported by an identically
	// configured factory — into the receiver. Implementations panic on a
	// configuration mismatch (a programming error: partitions of one run
	// always share the factory configuration).
	MergeLearned(o LearnedState)
}

// SharedLearner is an optional Factory interface for policies whose
// learned state is mergeable across partitions. The sharded runner uses
// it to fix the P>1 learning scope: each partition's factory exports its
// state after the run, the exports fold canonically, and a later epoch's
// factories are seeded with the combined cluster history instead of each
// partition re-learning from only its own jobs.
type SharedLearner interface {
	// ExportLearned snapshots what the factory learned ITSELF — an
	// independent copy, safe to merge and retain after the factory is
	// gone — or nil when the configured learner is not mergeable.
	// Seeded history (SeedLearned) is never re-exported: every partition
	// of a sharded run holds the same seeded base, and exporting deltas
	// is what keeps the canonical merge from folding it P times over.
	ExportLearned() LearnedState
	// SeedLearned pre-loads learned state (accumulated from previous
	// epochs' exports) before any job runs, as an immutable query-only
	// layer under whatever the factory records itself. The factory must
	// copy what it needs: the same state value seeds every partition's
	// factory. nil is a no-op.
	SeedLearned(LearnedState)
}

// GroundTruth is an optional Factory interface for policies that schedule
// on perfect information: the optimal baseline of §2.3 and §6.2.3, which
// "knows task durations and slot availabilities in advance". When
// GroundTruth reports true, the scheduler gives the factory's policies
// ground-truth TaskViews (the exact remaining time of every running copy
// and the exact duration each task's next copy will have), reports an
// estimation accuracy of 1, and leaves its estimator untouched.
type GroundTruth interface {
	GroundTruth() bool
}

// Factory builds per-job policy instances. Stateless policies can be shared;
// stateful ones (GRASS) allocate per job.
type Factory interface {
	// Name identifies the policy family.
	Name() string
	// NewPolicy returns the policy instance for one job.
	NewPolicy(jobID, numTasks int) Policy
}

// statelessFactory reuses one Policy for every job.
type statelessFactory struct{ p Policy }

// Stateless wraps a stateless Policy as a Factory.
func Stateless(p Policy) Factory { return statelessFactory{p} }

func (f statelessFactory) Name() string              { return f.p.Name() }
func (f statelessFactory) NewPolicy(int, int) Policy { return f.p }

// MaxCopies caps the number of simultaneous copies of one task any policy
// will request. Guideline 1 says ≤2 copies are optimal during early waves;
// the final wave speculates aggressively, but beyond a few copies the
// marginal gain of another i.i.d. draw is negligible.
const MaxCopies = 4

// MinSpecProgress is the progress fraction a copy must report before its
// task becomes eligible for speculation (§5: progress reports every 5% of
// data; schedulers cannot estimate t_rem for a copy that has not
// reported).
const MinSpecProgress = 0.15
