package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// Config tunes the GRASS policy family.
type Config struct {
	// Xi is the perturbation probability: the fraction of jobs that run pure
	// GS or pure RAS end-to-end to generate learning samples (§4.2). The
	// paper finds ξ = 15% empirically best (Figure 15).
	Xi float64
	// Factors selects which switching factors the learner conditions on
	// (§4.1); AllFactors() is the full design.
	Factors FactorSet
	// Strawman disables learning entirely and switches statically at the
	// estimated final-two-waves point (§6.3.2's strawman).
	Strawman bool
	// Splits is the number of candidate switch points evaluated in the
	// remaining work (default 12).
	Splits int
	// Seed drives the perturbation coin flips.
	Seed int64
	// Learner selects the sample store: the zero value is the original
	// per-bin ring-buffer Learner (partition-scoped at P>1);
	// LearnerSketch selects the mergeable SketchLearner, whose state
	// folds exactly across sched.RunSharded partitions.
	Learner LearnerKind
}

// DefaultConfig returns the paper's configuration: ξ=15%, all three factors.
func DefaultConfig() Config {
	return Config{Xi: 0.15, Factors: AllFactors(), Splits: 12, Seed: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Xi < 0 || c.Xi > 1 {
		return fmt.Errorf("core: xi %v out of [0,1]", c.Xi)
	}
	if c.Splits < 0 {
		return fmt.Errorf("core: negative splits %d", c.Splits)
	}
	if c.Learner > LearnerSketch {
		return fmt.Errorf("core: unknown learner kind %d", c.Learner)
	}
	return nil
}

// Factory builds per-job GRASS policies sharing one learner — the cluster
// scheduler's long-lived state.
type Factory struct {
	cfg     Config
	learner LearnerStore
	rng     *dist.RNG
	stats   Stats

	// gs/ras are templates whose selection buffers every per-job policy
	// shares: a factory serves one scheduler goroutine, and the buffers live
	// only within a single Pick call.
	gs  spec.GS
	ras spec.RAS
}

// Stats counts policy decisions across a factory's jobs (diagnostics).
type Stats struct {
	// Sampled is the number of ξ-perturbation jobs (pure GS or RAS).
	Sampled int
	// Adaptive is the number of jobs running the RAS→GS switching logic.
	Adaptive int
	// Switched is how many adaptive jobs actually took the switch.
	Switched int
	// LearnedDecisions and StaticDecisions count switch evaluations that
	// used learner predictions versus the static fallback rule.
	LearnedDecisions, StaticDecisions int
}

// New constructs a GRASS policy factory.
func New(cfg Config) (*Factory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Splits == 0 {
		cfg.Splits = 12
	}
	var learner LearnerStore
	if cfg.Learner == LearnerSketch {
		learner = NewSketchLearner(cfg.Factors)
	} else {
		learner = NewLearner(cfg.Factors)
	}
	return &Factory{
		cfg:     cfg,
		learner: learner,
		rng:     dist.NewRNG(cfg.Seed),
		gs:      spec.NewGS(),
		ras:     spec.NewRAS(),
	}, nil
}

// Name identifies the variant: the full design, the static strawman, or a
// factor ablation (Best-1 uses only the bound; Best-2 adds one factor).
func (f *Factory) Name() string {
	if f.cfg.Strawman {
		return "GRASS-Strawman"
	}
	switch {
	case f.cfg.Factors.Utilization && f.cfg.Factors.Accuracy:
		return "GRASS"
	case f.cfg.Factors.Utilization:
		return "GRASS-Best2(util)"
	case f.cfg.Factors.Accuracy:
		return "GRASS-Best2(acc)"
	default:
		return "GRASS-Best1"
	}
}

// Learner exposes the shared sample store (tests and diagnostics).
func (f *Factory) Learner() LearnerStore { return f.learner }

// Stats reports decision counts accumulated so far.
func (f *Factory) Stats() Stats { return f.stats }

// ExportLearned implements spec.SharedLearner: with the sketch learner
// configured it snapshots the mergeable sample store (caches stripped, so
// exports depend only on the recorded sample multiset); the ring learner
// is not mergeable and exports nil.
func (f *Factory) ExportLearned() spec.LearnedState {
	if sl, ok := f.learner.(*SketchLearner); ok {
		return sl.Clone()
	}
	return nil
}

// SeedLearned implements spec.SharedLearner: the factory layers an
// independent copy of the state under its learner as an immutable base —
// queries see the seeded cluster history plus whatever this factory
// records, while ExportLearned keeps returning only the factory's own
// recordings. Every partition of a sharded run is seeded with the SAME
// merged value; exporting deltas is what keeps the next merge from
// folding that shared base P times. Only the sketch learner can adopt
// state; seeding a ring-learner factory with a non-nil state is a
// configuration error and panics.
func (f *Factory) SeedLearned(state spec.LearnedState) {
	if state == nil {
		return
	}
	src, ok := state.(*SketchLearner)
	if !ok {
		panic(fmt.Sprintf("core: seeding factory with incompatible learned state %T", state))
	}
	sl, ok := f.learner.(*SketchLearner)
	if !ok {
		panic("core: a ring-learner factory cannot adopt merged state (set Config.Learner = LearnerSketch)")
	}
	if src.factors != f.cfg.Factors {
		panic("core: seeding factory with learned state of a different factor set")
	}
	sl.SetBase(src.Clone())
}

// NewPolicy creates the policy for one job, flipping the ξ-perturbation
// coin: with probability ξ the job runs pure GS or pure RAS (equally
// likely) for its entire life and contributes a learning sample.
func (f *Factory) NewPolicy(jobID, numTasks int) spec.Policy {
	p := &policy{
		f:        f,
		numTasks: numTasks,
		bin:      task.BinOf(numTasks),
		gs:       f.gs,
		ras:      f.ras,
	}
	if !f.cfg.Strawman && f.rng.Float64() < f.cfg.Xi {
		p.sampled = true
		if f.rng.Float64() < 0.5 {
			p.samplePol = sampleGS
		} else {
			p.samplePol = sampleRAS
		}
	}
	if p.sampled {
		f.stats.Sampled++
	} else {
		f.stats.Adaptive++
	}
	return p
}

// policy is the per-job GRASS controller.
type policy struct {
	f        *Factory
	numTasks int
	bin      task.SizeBin

	sampled   bool
	samplePol samplePolicy

	switched bool // RAS → GS switch already taken
	curve    Curve

	gs  spec.GS
	ras spec.RAS

	// Candidate-state arguments of the in-flight Pick/PickIncremental
	// call, stashed as fields so the shared switching logic can compute
	// the median t_new from whichever representation is live without a
	// per-call closure allocation. Exactly one is non-nil during a call.
	vsArg    *spec.ViewSet
	tasksArg []spec.TaskView
}

// clearArgs drops the stashed candidate state when a call returns: the
// views belong to the caller (a per-phase ViewSet, a test's rebuilt
// slice) and must not be retained across calls — a later out-of-call
// read should hit nil, not a dead phase's views.
func (g *policy) clearArgs() { g.tasksArg, g.vsArg = nil, nil }

// medTNew returns the median fresh-copy estimate over the in-flight
// call's candidate state.
func (g *policy) medTNew() float64 {
	if g.vsArg != nil {
		return g.vsArg.MedianTNew()
	}
	return medianTNew(g.tasksArg)
}

// Name implements spec.Policy.
func (g *policy) Name() string { return g.f.Name() }

// Pick implements spec.Policy: sample jobs run their assigned pure policy;
// adaptive jobs run RAS until the learned (or strawman) switch point, then
// GS for the rest of the job.
func (g *policy) Pick(ctx spec.Ctx, tasks []spec.TaskView) (spec.Decision, bool) {
	g.tasksArg, g.vsArg = tasks, nil
	defer g.clearArgs()
	if g.sampled {
		if g.samplePol == sampleGS {
			return g.gs.Pick(ctx, tasks)
		}
		return g.ras.Pick(ctx, tasks)
	}
	if !g.switched && g.shouldSwitch(ctx) {
		g.switched = true
		g.f.stats.Switched++
	}
	if g.switched {
		return g.gs.Pick(ctx, tasks)
	}
	return g.ras.Pick(ctx, tasks)
}

// PickIncremental implements spec.IncrementalPolicy: the same control flow
// as Pick with the switching decision and the delegated GS/RAS selections
// answered from the maintained candidate state. The switched flag and the
// learner are shared with Pick, so a job may interleave both paths (the
// differential tests do) without divergence.
func (g *policy) PickIncremental(ctx spec.Ctx, vs *spec.ViewSet) (spec.Decision, bool) {
	g.tasksArg, g.vsArg = nil, vs
	defer g.clearArgs()
	if g.sampled {
		if g.samplePol == sampleGS {
			return g.gs.PickIncremental(ctx, vs)
		}
		return g.ras.PickIncremental(ctx, vs)
	}
	if !g.switched && g.shouldSwitch(ctx) {
		g.switched = true
		g.f.stats.Switched++
	}
	if g.switched {
		return g.gs.PickIncremental(ctx, vs)
	}
	return g.ras.PickIncremental(ctx, vs)
}

// shouldSwitch decides whether "the optimal switching point turns out to be
// at present" (§4.1). It steps through candidate split points of the
// remaining work; the predicted performance of splitting at s is the sum of
// a pure-RAS prefix and a pure-GS suffix, each predicted from sample-job
// curves matched on job size, waves and estimation accuracy. When the
// learner has no data (or in strawman mode) it falls back to the static
// two-waves rule.
func (g *policy) shouldSwitch(ctx spec.Ctx) bool {
	if g.f.cfg.Strawman {
		return g.staticRule(ctx)
	}
	if ctx.Kind == task.DeadlineBound {
		return g.switchDeadline(ctx)
	}
	return g.switchError(ctx)
}

// switchWith evaluates the switching decision against an explicit view
// slice — the entry point the unit tests drive shouldSwitch through.
func (g *policy) switchWith(ctx spec.Ctx, tasks []spec.TaskView) bool {
	g.tasksArg, g.vsArg = tasks, nil
	defer g.clearArgs()
	return g.shouldSwitch(ctx)
}

// waves approximates the job's wave count from its slot share.
func (g *policy) waves(ctx spec.Ctx) float64 {
	w := ctx.WaveWidth
	if w < 1 {
		w = 1
	}
	return float64(g.numTasks) / float64(w)
}

// continueFrom predicts the extra fraction a policy's average curve adds
// when continuing from fraction phi for t more time units: the curve is
// entered at the position where phi was reached, so segment predictions are
// marginal rather than from-zero (summing two from-zero prefixes of concave
// curves would double-count the easy early completions and bias the search
// toward never switching).
func continueFrom(c *Curve, phi, t float64) float64 {
	t0 := c.TimeToFrac(phi)
	if math.IsInf(t0, 1) {
		return 0
	}
	d := c.FracAt(t0+t) - phi
	if d < 0 {
		return 0
	}
	return d
}

func (g *policy) switchDeadline(ctx spec.Ctx) bool {
	rem := ctx.RemainingTime
	if rem <= 0 {
		return true // nothing left to conserve; be greedy
	}
	l, waves, acc := g.f.learner, g.waves(ctx), ctx.EstimationAccuracy
	rasC, ok1 := l.Aggregate(sampleRAS, g.bin, waves, acc)
	gsC, ok2 := l.Aggregate(sampleGS, g.bin, waves, acc)
	if !ok1 || !ok2 {
		g.f.stats.StaticDecisions++
		return g.staticRule(ctx) // insufficient samples yet
	}
	g.f.stats.LearnedDecisions++
	phi := 0.0
	if ctx.TotalTasks > 0 {
		phi = float64(ctx.CompletedTasks) / float64(ctx.TotalTasks)
	}
	splits := g.f.cfg.Splits
	bestIdx, bestAcc := -1, -1.0
	for i := 0; i <= splits; i++ {
		s := rem * float64(i) / float64(splits)
		mid := phi + continueFrom(rasC, phi, s)
		a := mid + continueFrom(gsC, mid, rem-s)
		if a > bestAcc {
			bestIdx, bestAcc = i, a
		}
	}
	// Split index 0 means "spend no more time in RAS": switch now. A later
	// evaluation re-asks the same question with less remaining time, which
	// is the paper's periodic re-checking.
	return bestIdx == 0
}

func (g *policy) switchError(ctx spec.Ctx) bool {
	remTasks := ctx.Remaining()
	if remTasks <= 0 {
		return true
	}
	total := ctx.TotalTasks
	if total <= 0 {
		return true
	}
	l, waves, acc := g.f.learner, g.waves(ctx), ctx.EstimationAccuracy
	rasC, ok1 := l.Aggregate(sampleRAS, g.bin, waves, acc)
	gsC, ok2 := l.Aggregate(sampleGS, g.bin, waves, acc)
	if !ok1 || !ok2 {
		g.f.stats.StaticDecisions++
		return g.staticRule(ctx)
	}
	g.f.stats.LearnedDecisions++
	phi := float64(ctx.CompletedTasks) / float64(total)
	target := float64(ctx.TargetTasks) / float64(total)
	// segTime is the marginal time for a policy to carry the job from
	// fraction a to fraction b along its average curve.
	segTime := func(c *Curve, a, b float64) float64 {
		if b <= a {
			return 0
		}
		ta, tb := c.TimeToFrac(a), c.TimeToFrac(b)
		if math.IsInf(tb, 1) {
			return math.Inf(1)
		}
		if math.IsInf(ta, 1) || tb < ta {
			return 0
		}
		return tb - ta
	}
	splits := g.f.cfg.Splits
	bestIdx := -1
	bestDur := math.Inf(1)
	for i := 0; i <= splits; i++ {
		mid := phi + (target-phi)*float64(i)/float64(splits)
		d := segTime(rasC, phi, mid) + segTime(gsC, mid, target)
		if d < bestDur {
			bestIdx, bestDur = i, d
		}
	}
	if math.IsInf(bestDur, 1) {
		return g.staticRule(ctx)
	}
	return bestIdx == 0
}

// staticRule is the theory-guided two-waves heuristic (§4's strawman, also
// GRASS's cold-start fallback): switch to GS once the remaining work fits
// in at most two waves of tasks.
func (g *policy) staticRule(ctx spec.Ctx) bool {
	if ctx.Kind == task.DeadlineBound {
		// Time to the deadline sufficient for at most two waves, with task
		// duration taken as the median estimate of a fresh copy.
		med := g.medTNew()
		if med <= 0 {
			return false
		}
		return ctx.RemainingTime <= 2*med
	}
	// Remaining needed tasks make up at most two waves.
	w := ctx.WaveWidth
	if w < 1 {
		w = 1
	}
	return ctx.Remaining() <= 2*w
}

// medianTNew returns the median fresh-copy estimate across views.
func medianTNew(tasks []spec.TaskView) float64 {
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

// OnTaskComplete implements spec.ProgressObserver: it extends the job's
// completion curve.
func (g *policy) OnTaskComplete(completed int, t float64) {
	g.curve.Add(t, float64(completed)/float64(g.numTasks))
}

// OnJobEnd implements spec.Observer: sample jobs contribute their completion
// curve to the shared learner, keyed by the factor values at completion.
func (g *policy) OnJobEnd(ctx spec.Ctx, acc, dur float64) {
	if !g.sampled || g.curve.Empty() {
		return
	}
	g.f.learner.Record(g.samplePol, g.bin, g.waves(ctx), ctx.EstimationAccuracy, &g.curve)
}
