// Package oracle provides the "optimal" baseline of §2.3 and §6.2.3: a
// scheduler that "knows task durations and slot availabilities in advance".
//
// Its Factory implements spec.GroundTruth, so wherever it runs the scheduler
// feeds its policies ground-truth TaskViews: the exact remaining time of
// every running copy and the exact duration the next copy of each task
// would have. On top of that perfect information the oracle applies the
// theory's optimal structure (Guidelines 1–3): bound-aware ordering with
// resource-aware speculation (RAS) through the early waves, switching to
// aggressive greedy speculation (GS) for the final two waves — the switch
// point computed exactly, since nothing is estimated.
package oracle

import (
	"sort"

	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// Factory builds per-job oracle policies.
type Factory struct{}

// New returns the oracle policy factory.
func New() Factory { return Factory{} }

// Name returns "Oracle".
func (Factory) Name() string { return "Oracle" }

// GroundTruth implements spec.GroundTruth: the oracle sees exact durations.
func (Factory) GroundTruth() bool { return true }

// NewPolicy returns a fresh per-job oracle controller.
func (Factory) NewPolicy(jobID, numTasks int) spec.Policy {
	return &policy{}
}

// policy switches RAS→GS at the exact final-two-waves point.
type policy struct {
	switched bool
	gs       spec.GS
	ras      spec.RAS
}

// Name implements spec.Policy.
func (*policy) Name() string { return "Oracle" }

// Pick implements spec.Policy.
func (p *policy) Pick(ctx spec.Ctx, tasks []spec.TaskView) (spec.Decision, bool) {
	if !p.switched {
		var med float64
		if ctx.Kind == task.DeadlineBound {
			med = trueMedianTNew(tasks)
		}
		if lastTwoWaves(ctx, med) {
			p.switched = true
		}
	}
	if p.switched {
		return p.gs.Pick(ctx, tasks)
	}
	return p.ras.Pick(ctx, tasks)
}

// PickIncremental implements spec.IncrementalPolicy: the exact two-wave
// switch test selects the ground-truth median t_new from the view set
// (deadline bounds only, as in Pick — the error-bound test never reads
// it), and the GS/RAS selections run over the incremental candidate state.
// The switch flag is shared with Pick.
func (p *policy) PickIncremental(ctx spec.Ctx, vs *spec.ViewSet) (spec.Decision, bool) {
	if !p.switched {
		var med float64
		if ctx.Kind == task.DeadlineBound {
			med = vs.MedianTNew()
		}
		if lastTwoWaves(ctx, med) {
			p.switched = true
		}
	}
	if p.switched {
		return p.gs.PickIncremental(ctx, vs)
	}
	return p.ras.PickIncremental(ctx, vs)
}

// lastTwoWaves reports whether the remaining work fits within two waves —
// with ground-truth durations this is exact, unlike the strawman's
// estimate. med is the median ground-truth fresh-copy duration (only read
// for deadline bounds).
func lastTwoWaves(ctx spec.Ctx, med float64) bool {
	if ctx.Kind == task.DeadlineBound {
		if med <= 0 {
			return false
		}
		return ctx.RemainingTime <= 2*med
	}
	w := ctx.WaveWidth
	if w < 1 {
		w = 1
	}
	return ctx.Remaining() <= 2*w
}

func trueMedianTNew(tasks []spec.TaskView) float64 {
	if len(tasks) == 0 {
		return 0
	}
	vals := make([]float64, len(tasks))
	for i, t := range tasks {
		vals[i] = t.TNew
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
