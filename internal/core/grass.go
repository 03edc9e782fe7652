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
	// estimated final-two-waves point (§6.3.2's strawman). NewOracle runs
	// it on ground-truth views.
	Strawman bool
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
	return Config{Xi: 0.15, Factors: AllFactors(), Seed: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Xi < 0 || c.Xi > 1 {
		return fmt.Errorf("core: xi %v out of [0,1]", c.Xi)
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
	name    string
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
	var learner LearnerStore
	if cfg.Learner == LearnerSketch {
		learner = NewSketchLearner(cfg.Factors)
	} else {
		learner = NewLearner(cfg.Factors)
	}
	return &Factory{
		cfg:     cfg,
		name:    cfg.name(),
		learner: learner,
		rng:     dist.NewRNG(cfg.Seed),
		gs:      spec.NewGS(),
		ras:     spec.NewRAS(),
	}, nil
}

// name identifies the variant: the full design, the static strawman, or a
// factor ablation (Best-1 uses only the bound; Best-2 adds one factor).
func (c Config) name() string {
	if c.Strawman {
		return "GRASS-Strawman"
	}
	switch {
	case c.Factors.Utilization && c.Factors.Accuracy:
		return "GRASS"
	case c.Factors.Utilization:
		return "GRASS-Best2(util)"
	case c.Factors.Accuracy:
		return "GRASS-Best2(acc)"
	default:
		return "GRASS-Best1"
	}
}

// Name identifies the variant.
func (f *Factory) Name() string { return f.name }

// NewOracle returns the "optimal" baseline of §2.3 and §6.2.3: a scheduler
// that "knows task durations and slot availabilities in advance". It is
// the strawman (§6.3.2) on ground truth. The factory implements
// spec.GroundTruth, so wherever it runs the scheduler feeds its policies
// ground-truth views: the exact remaining time of every running copy and
// the exact duration the next copy of each task would have. On that
// perfect information the strawman's static rule is the theory's optimal
// structure (Guidelines 1–3): resource-aware speculation (RAS) through the
// early waves, then greedy speculation (GS) for the final two waves, with
// the switch point exact since nothing is estimated. So the oracle is a
// perfect-information RAS→GS switch, not an offline optimum. The strawman
// draws no ξ coin, so the oracle consumes no randomness, and it shares no
// learned state: Oracle does not implement spec.SharedLearner.
func NewOracle() Oracle {
	f, _ := New(Config{Strawman: true}) // a zero ξ always validates
	f.name = "Oracle"
	return Oracle{f}
}

// Oracle is the oracle's factory. It holds the strawman factory rather than
// embedding it, so it exposes no learner.
type Oracle struct{ f *Factory }

// Name returns "Oracle".
func (o Oracle) Name() string { return o.f.name }

// GroundTruth implements spec.GroundTruth: the oracle sees exact durations.
func (Oracle) GroundTruth() bool { return true }

// NewPolicy returns a fresh per-job RAS→GS controller.
func (o Oracle) NewPolicy(jobID, numTasks int) spec.Policy {
	return o.f.NewPolicy(jobID, numTasks)
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
}

// candidates is the candidate state the switch reads: *spec.ViewSet, or
// taskViews for the reference Pick.
type candidates interface {
	// MedianTNew returns the median fresh-copy estimate.
	MedianTNew() float64
}

// Name implements spec.Policy.
func (g *policy) Name() string { return g.f.name }

// Pick implements spec.Policy: sample jobs run their assigned pure policy;
// adaptive jobs run RAS until the learned (or strawman) switch point, then
// GS for the rest of the job.
func (g *policy) Pick(ctx spec.Ctx, tasks []spec.TaskView) (spec.Decision, bool) {
	if g.runGS(ctx, taskViews(tasks)) {
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
	if g.runGS(ctx, vs) {
		return g.gs.PickIncremental(ctx, vs)
	}
	return g.ras.PickIncremental(ctx, vs)
}

// runGS reports whether this attempt runs GS rather than RAS, taking the
// switch when an adaptive job reaches its switch point.
func (g *policy) runGS(ctx spec.Ctx, c candidates) bool {
	if g.sampled {
		return g.samplePol == sampleGS
	}
	if !g.switched && g.shouldSwitch(ctx, c) {
		g.switched = true
		g.f.stats.Switched++
	}
	return g.switched
}

// shouldSwitch decides whether "the optimal switching point turns out to be
// at present" (§4.1). It steps through candidate split points of the
// remaining work; the predicted performance of splitting at s is the sum of
// a pure-RAS prefix and a pure-GS suffix, each predicted from sample-job
// curves matched on job size, waves and estimation accuracy. When the
// learner has no data (or in strawman mode) it falls back to the static
// two-waves rule.
func (g *policy) shouldSwitch(ctx spec.Ctx, c candidates) bool {
	if g.f.cfg.Strawman {
		return staticRule(ctx, c)
	}
	if ctx.Kind == task.DeadlineBound {
		return g.switchDeadline(ctx, c)
	}
	return g.switchError(ctx, c)
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

// splits is the number of candidate switch points the learned switch
// evaluates across the remaining work.
const splits = 12

func (g *policy) switchDeadline(ctx spec.Ctx, c candidates) bool {
	rem := ctx.RemainingTime
	if rem <= 0 {
		return true // nothing left to conserve; be greedy
	}
	l, waves, acc := g.f.learner, g.waves(ctx), ctx.EstimationAccuracy
	rasC, ok1 := l.Aggregate(sampleRAS, g.bin, waves, acc)
	gsC, ok2 := l.Aggregate(sampleGS, g.bin, waves, acc)
	if !ok1 || !ok2 {
		g.f.stats.StaticDecisions++
		return staticRule(ctx, c) // insufficient samples yet
	}
	g.f.stats.LearnedDecisions++
	phi := 0.0
	if ctx.TotalTasks > 0 {
		phi = float64(ctx.CompletedTasks) / float64(ctx.TotalTasks)
	}
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

func (g *policy) switchError(ctx spec.Ctx, c candidates) bool {
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
		return staticRule(ctx, c)
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
		return staticRule(ctx, c)
	}
	return bestIdx == 0
}

// staticRule is the theory-guided two-waves heuristic (§4's strawman, also
// GRASS's cold-start fallback and, on ground truth, the oracle): switch to
// GS once the remaining work fits in at most two waves of tasks.
func staticRule(ctx spec.Ctx, c candidates) bool {
	if ctx.Kind == task.DeadlineBound {
		// Time to the deadline sufficient for at most two waves, with task
		// duration taken as the median estimate of a fresh copy.
		med := c.MedianTNew()
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

// taskViews is the reference Pick's candidate state.
type taskViews []spec.TaskView

// MedianTNew returns the median fresh-copy estimate across the views.
func (tasks taskViews) MedianTNew() float64 {
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

// OnTaskComplete implements spec.ProgressObserver: a sample job extends its
// completion curve. No other job's curve is ever read.
func (g *policy) OnTaskComplete(completed int, t float64) {
	if g.sampled {
		g.curve.Add(t, float64(completed)/float64(g.numTasks))
	}
}

// OnJobEnd implements spec.Observer: sample jobs contribute their completion
// curve to the shared learner, keyed by the factor values at completion.
func (g *policy) OnJobEnd(ctx spec.Ctx, acc, dur float64) {
	if !g.sampled || g.curve.Empty() {
		return
	}
	g.f.learner.Record(g.samplePol, g.bin, g.waves(ctx), ctx.EstimationAccuracy, &g.curve)
}
