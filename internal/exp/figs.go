package exp

import (
	"fmt"
	"sort"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/metrics"
	"github.com/approx-analytics/grass/internal/model"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// policySpec names a policy and knows how to build it per seed.
type policySpec struct {
	name string
	make func(seed int64) (spec.Factory, error)
}

func named(n string) policySpec {
	return policySpec{name: n, make: func(seed int64) (spec.Factory, error) {
		return NewFactory(n, seed)
	}}
}

func grassWithXi(xi float64) policySpec {
	name := fmt.Sprintf("grass-xi%02.0f", xi*100)
	return policySpec{name: name, make: func(seed int64) (spec.Factory, error) {
		c := core.DefaultConfig()
		c.Xi = xi
		c.Seed = seed
		return core.New(c)
	}}
}

// runSet holds paired results: policy name → per-seed job results.
type runSet map[string][][]sched.JobResult

// scenario is one cell of an experiment's grid: a workload/framework/bound
// combination simulated under a set of policies (with an optional simulator
// config mutation) across every seed. dag 0 and 1 both mean input-only jobs.
type scenario struct {
	w        trace.Workload
	fw       trace.Framework
	b        trace.BoundMode
	dag      int
	policies []policySpec
	mutate   func(*sched.Config)
}

// runScenarios fans the full (scenario, policy, seed) grid out over one
// bounded worker pool and returns one runSet per scenario, in input order.
// Pooling across scenarios — not per scenario — keeps every worker busy
// even when a single scenario has fewer runs than the pool has slots.
//
// Determinism: each run builds its own trace, factory and simulator from
// its seed alone and writes into its own pre-assigned result slot, so the
// output is byte-identical regardless of worker count or goroutine
// interleaving.
func (c Config) runScenarios(scs []scenario) ([]runSet, error) {
	nSeeds := len(c.Seeds)
	starts := make([]int, len(scs)+1)
	for i, sc := range scs {
		starts[i+1] = starts[i] + len(sc.policies)*nSeeds
	}
	results := make([][]sched.JobResult, starts[len(scs)])
	err := forEach(len(results), c.workers(), func(idx int) error {
		si := sort.Search(len(scs), func(i int) bool { return starts[i+1] > idx })
		sc := scs[si]
		off := idx - starts[si]
		p := sc.policies[off/nSeeds]
		seed := c.Seeds[off%nSeeds]
		tc := c.TraceConfig(sc.w, sc.fw, sc.b, seed)
		if sc.dag > 1 {
			tc.DAGLength = sc.dag
		}
		// Stream the trace instead of materializing it: RunSource pulls one
		// job per arrival and recycles finished jobs through the stream's
		// pool, so a worker's footprint tracks the jobs in flight. The
		// results are identical to the materializing path (the golden tests
		// pin that).
		stream, err := trace.NewStream(tc)
		if err != nil {
			return err
		}
		factory, err := p.make(seed)
		if err != nil {
			return err
		}
		scfg := c.SchedConfig(sc.fw, seed)
		if sc.mutate != nil {
			sc.mutate(&scfg)
		}
		sim, err := sched.New(scfg, factory)
		if err != nil {
			return err
		}
		stats, err := sim.RunSource(stream)
		if err != nil {
			return fmt.Errorf("%s/%s/%s seed %d: %w", sc.w, sc.fw, p.name, seed, err)
		}
		results[idx] = stats.Results
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]runSet, len(scs))
	for si, sc := range scs {
		rs := make(runSet, len(sc.policies))
		for pi, p := range sc.policies {
			lo := starts[si] + pi*nSeeds
			// Full slice expression: capacity ends at the policy's own
			// block, so a future append can never bleed into a neighbour.
			rs[p.name] = results[lo : lo+nSeeds : lo+nSeeds]
		}
		out[si] = rs
	}
	return out, nil
}

// improvement reduces a runSet to the median (across seeds) improvement of
// treat over base under metric, restricted by filter (nil = all jobs).
func (rs runSet) improvement(base, treat string,
	metric func(b, t []sched.JobResult) float64,
	filter func(sched.JobResult) bool) float64 {

	bs, ts := rs[base], rs[treat]
	n := len(bs)
	if len(ts) < n {
		n = len(ts)
	}
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		b, t := bs[i], ts[i]
		if filter != nil {
			b = filterResults(b, filter)
			t = filterResults(t, filter)
		}
		vals = append(vals, metric(b, t))
	}
	return metrics.MedianOfRuns(vals)
}

// boundMetric returns the paper's headline metric for the bound mode:
// accuracy-improvement % for deadlines, speedup % otherwise.
func boundMetric(b trace.BoundMode) func(base, treat []sched.JobResult) float64 {
	if b == trace.DeadlineBound {
		return metrics.AccuracyImprovementPct
	}
	return metrics.SpeedupPct
}

// gain is one cell of a gain table: the median paired improvement of treat
// over base in scenario sc, under that scenario's bound metric, restricted
// to the jobs keep accepts (nil keeps every job).
type gain struct {
	sc          int
	base, treat string
	keep        func(sched.JobResult) bool
}

// gainRow is one labelled row of gain cells.
type gainRow struct {
	label string
	gains []gain
}

// gainTable runs the scenarios on one worker pool and appends one row of
// gains to t per entry of rows. Every comparative experiment is a
// declaration of its scenarios and rows handed to this builder.
func (c Config) gainTable(t *Table, scs []scenario, rows []gainRow) (*Table, error) {
	sets, err := c.runScenarios(scs)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		vals := make([]float64, len(r.gains))
		for i, g := range r.gains {
			vals[i] = sets[g.sc].improvement(g.base, g.treat, boundMetric(scs[g.sc].b), g.keep)
		}
		t.AddRow(r.label, vals...)
	}
	return t, nil
}

// over lists each treatment's gain over base in the n scenarios from
// first on, scenario-major: the column layout of every figure that
// compares policies side by side per scenario.
func over(base string, first, n int, treats ...string) []gain {
	var gs []gain
	for sc := first; sc < first+n; sc++ {
		for _, t := range treats {
			gs = append(gs, gain{sc: sc, base: base, treat: t})
		}
	}
	return gs
}

// restrict returns a copy of gs that keeps only the jobs keep accepts.
func restrict(gs []gain, keep func(sched.JobResult) bool) []gain {
	out := make([]gain, len(gs))
	for i, g := range gs {
		g.keep = keep
		out[i] = g
	}
	return out
}

// binRows gives one row per job-size bin, then "all": each row holds cols
// restricted to its bin.
func binRows(cols ...gain) []gainRow {
	var rows []gainRow
	for _, bin := range task.AllBins {
		inBin := func(r sched.JobResult) bool { return r.Bin == bin }
		rows = append(rows, gainRow{bin.String(), restrict(cols, inBin)})
	}
	return append(rows, gainRow{"all", cols})
}

// hadoop is the Hadoop scenario most figures run: input-only jobs of
// workload w under bound b.
func hadoop(w trace.Workload, b trace.BoundMode, pols []policySpec) scenario {
	return scenario{w: w, fw: trace.Hadoop, b: b, policies: pols}
}

// The workload, bound and framework axes the figures sweep.
var (
	fbBing   = []trace.Workload{trace.Facebook, trace.Bing}
	dlErr    = []trace.BoundMode{trace.DeadlineBound, trace.ErrorBound}
	hadSpark = []trace.Framework{trace.Hadoop, trace.Spark}
)

// Table1 reproduces Table 1: details of the (synthetic) Facebook and Bing
// traces.
func Table1(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Table 1: trace details (synthetic reproductions)",
		Columns: []string{"jobs", "tasks", "mean", "<50", "51-500", ">500"},
	}
	for _, w := range []trace.Workload{trace.Facebook, trace.Bing} {
		tc := cfg.TraceConfig(w, trace.Hadoop, trace.ErrorBound, cfg.Seeds[0])
		jobs, err := trace.Generate(tc)
		if err != nil {
			return nil, err
		}
		st := trace.Summarize(tc, jobs)
		t.AddRow(w.String(),
			float64(st.Jobs), float64(st.TotalTasks), st.MeanTasks,
			float64(st.BinCounts[task.Small]), float64(st.BinCounts[task.Medium]),
			float64(st.BinCounts[task.Large]))
	}
	t.Notes = append(t.Notes,
		"paper traces: Facebook Hadoop/Hive 575K jobs (Oct 2012), Bing Dryad/Scope 500K jobs (May-Dec 2011)")
	return t, nil
}

// Fig3Hill reproduces Figure 3: the Hill plot of task durations, whose flat
// region estimates the Pareto tail index β ≈ 1.259.
func Fig3Hill(cfg Config) (*Table, error) {
	// Sample realized task durations normalized by input size — the paper's
	// own methodology ("task durations are normalized by their input sizes
	// to be resistant to data skews", §2.2) — i.e. the straggler factor
	// times machine heterogeneity, without the intrinsic work.
	scfg := sched.DefaultConfig()
	rng := dist.NewRNG(cfg.Seeds[0])
	// The simulator truncates the tail at DurationCap for bounded run
	// times; the Hill plot examines the raw distribution, so sample the
	// untruncated tail (cap far beyond the order statistics plotted).
	factor, err := dist.NewBodyTail(0.6, 1.4, scfg.TailStart, scfg.DurationBeta, 1000, scfg.TailFrac)
	if err != nil {
		return nil, err
	}
	machine := dist.Lognormal{Mu: 0, Sigma: scfg.Cluster.HeterogeneitySigma}
	n := 200000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = factor.Sample(rng) * machine.Sample(rng)
	}
	pts := dist.HillPlot(samples, 200, n/20, 24)
	t := &Table{
		Title:   "Figure 3: Hill plot of task durations (flat region ~= beta)",
		Columns: []string{"k", "beta-hat"},
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("k=%d", p.K), float64(p.K), p.Beta)
	}
	t.Notes = append(t.Notes, "paper: flat region at beta = 1.259; tail is Pareto, body is not")
	return t, nil
}

// Fig4Reactive reproduces Figure 4: response time of ω-threshold reactive
// speculation normalized to optimal, for 1–5 wave jobs; GS and RAS marked.
func Fig4Reactive() (*Table, error) {
	const beta = 1.259
	p := dist.Pareto{Xm: 1, Beta: beta}
	t := &Table{
		Title:   "Figure 4: processing time / optimal vs omega (Pareto beta=1.259)",
		Columns: []string{"1 wave", "2 waves", "3 waves", "4 waves", "5 waves"},
	}
	const points = 26
	series := make([][]model.Figure4Point, 5)
	for wv := 1; wv <= 5; wv++ {
		s, err := model.Figure4Series(beta, float64(wv), 10, 5, points)
		if err != nil {
			return nil, err
		}
		series[wv-1] = s
	}
	for i := 0; i < points; i++ {
		vals := make([]float64, 5)
		for wv := 0; wv < 5; wv++ {
			vals[wv] = series[wv][i].Ratio
		}
		t.AddRow(fmt.Sprintf("omega=%.1f", series[0][i].Omega), vals...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("omega_GS = %.2f, omega_RAS = %.2f", model.GSOmega(p), model.RASOmega(p)),
		"guideline 3: GS near-optimal under 2 waves, RAS at 2+ waves")
	return t, nil
}

// PotentialGains reproduces §2.3: the headroom of an optimal scheduler over
// LATE and Mantri (paper: deadline accuracy +48%/+44% FB/Bing, error-bound
// speedups +32%/+40%).
func PotentialGains(cfg Config) (*Table, error) {
	pols := []policySpec{named("late"), named("mantri"), named("oracle")}
	var scs []scenario
	var rows []gainRow
	for _, w := range fbBing {
		for _, b := range dlErr {
			sc := len(scs)
			scs = append(scs, hadoop(w, b, pols))
			rows = append(rows, gainRow{fmt.Sprintf("%s/%s", w, b),
				[]gain{{sc, "late", "oracle", nil}, {sc, "mantri", "oracle", nil}}})
		}
	}
	return cfg.gainTable(&Table{
		Title:   "Sec 2.3 potential gains: Oracle vs production baselines (%)",
		Columns: []string{"vs LATE", "vs Mantri"},
	}, scs, rows)
}

// figBinMatrix runs GRASS against both baselines across workloads and
// frameworks and reports per-bin improvements — the engine behind Figures 5
// and 7.
func figBinMatrix(cfg Config, b trace.BoundMode, title string) (*Table, error) {
	pols := []policySpec{named("late"), named("mantri"), named("grass")}
	var scs []scenario
	var cols []gain
	for _, fw := range hadSpark {
		for _, w := range fbBing {
			sc := len(scs)
			scs = append(scs, scenario{w: w, fw: fw, b: b, policies: pols})
			cols = append(cols, gain{sc, "late", "grass", nil}, gain{sc, "mantri", "grass", nil})
		}
	}
	return cfg.gainTable(&Table{
		Title: title,
		Columns: []string{
			"FB/Had/LATE", "FB/Had/Mantri", "Bing/Had/LATE", "Bing/Had/Mantri",
			"FB/Spk/LATE", "FB/Spk/Mantri", "Bing/Spk/LATE", "Bing/Spk/Mantri",
		},
	}, scs, binRows(cols...))
}

// Fig5Deadline reproduces Figure 5: accuracy improvement of GRASS for
// deadline-bound jobs, split by job bin, workload, framework and baseline.
func Fig5Deadline(cfg Config) (*Table, error) {
	return figBinMatrix(cfg, trace.DeadlineBound,
		"Figure 5: deadline-bound accuracy improvement (%) by job bin")
}

// Fig7Error reproduces Figure 7: speedup of GRASS for error-bound jobs.
func Fig7Error(cfg Config) (*Table, error) {
	return figBinMatrix(cfg, trace.ErrorBound,
		"Figure 7: error-bound job speedup (%) by job bin")
}

// Fig6Bounds reproduces Figure 6: GRASS's gains (vs LATE) binned by the
// deadline calibration factor (a) and the error bound (b).
func Fig6Bounds(cfg Config) (*Table, error) {
	pols := []policySpec{named("late"), named("grass")}
	// (a) deadline factor bins over both workloads, then (b) error bins
	// over both.
	var scs []scenario
	for _, b := range dlErr {
		for _, w := range fbBing {
			scs = append(scs, hadoop(w, b, pols))
		}
	}
	var rows []gainRow
	dl, er := over("late", 0, 2, "grass"), over("late", 2, 2, "grass")
	for _, db := range metrics.DeadlineBins {
		rows = append(rows, gainRow{"deadline " + db.Label() + "%", restrict(dl, db.Contains)})
	}
	for _, eb := range metrics.ErrorBins {
		rows = append(rows, gainRow{"error " + eb.Label() + "%", restrict(er, eb.Contains)})
	}
	return cfg.gainTable(&Table{
		Title:   "Figure 6: gains (%) binned by deadline factor / error bound (vs LATE)",
		Columns: []string{"Facebook", "Bing"},
	}, scs, rows)
}

// facebook lists one Facebook scenario per bound under framework fw — the
// grid of Figures 8 and 10–14.
func facebook(fw trace.Framework, pols []policySpec, bounds ...trace.BoundMode) []scenario {
	var scs []scenario
	for _, b := range bounds {
		scs = append(scs, scenario{w: trace.Facebook, fw: fw, b: b, policies: pols})
	}
	return scs
}

// Fig8Optimality reproduces Figure 8: GRASS against the optimal scheduler
// (both as improvement over LATE, Facebook workload with Spark).
func Fig8Optimality(cfg Config) (*Table, error) {
	pols := []policySpec{named("late"), named("grass"), named("oracle")}
	return cfg.gainTable(&Table{
		Title:   "Figure 8: GRASS vs Optimal, improvement (%) over LATE (FB, Spark)",
		Columns: []string{"GRASS dl", "Optimal dl", "GRASS err", "Optimal err"},
	}, facebook(trace.Spark, pols, dlErr...), binRows(over("late", 0, 2, "grass", "oracle")...))
}

// Fig9DAG reproduces Figure 9: GRASS's gains across job DAG lengths 2–6.
func Fig9DAG(cfg Config) (*Table, error) {
	pols := []policySpec{named("late"), named("grass")}
	var scs []scenario
	var rows []gainRow
	for dag := 2; dag <= 6; dag++ {
		// Scenario order is (dl FB, dl Bing, err FB, err Bing) per DAG
		// length — already the column layout.
		rows = append(rows, gainRow{fmt.Sprintf("DAG=%d", dag), over("late", len(scs), 4, "grass")})
		for _, b := range dlErr {
			for _, w := range fbBing {
				scs = append(scs, scenario{w: w, fw: trace.Hadoop, b: b, dag: dag, policies: pols})
			}
		}
	}
	return cfg.gainTable(&Table{
		Title:   "Figure 9: gains (%) vs DAG length (GRASS over LATE)",
		Columns: []string{"FB deadline", "Bing deadline", "FB error", "Bing error"},
	}, scs, rows)
}

// figSwitching runs GS-only, RAS-only and GRASS against LATE — Figures 10
// (deadline) and 11 (error) — across Hadoop and Spark.
func figSwitching(cfg Config, b trace.BoundMode, title string) (*Table, error) {
	pols := []policySpec{named("late"), named("gs"), named("ras"), named("grass")}
	var scs []scenario
	for _, fw := range hadSpark {
		scs = append(scs, facebook(fw, pols, b)...)
	}
	return cfg.gainTable(&Table{
		Title: title,
		Columns: []string{
			"Had GS", "Had RAS", "Had GRASS",
			"Spk GS", "Spk RAS", "Spk GRASS",
		},
	}, scs, binRows(over("late", 0, 2, "gs", "ras", "grass")...))
}

// Fig10SwitchingDeadline reproduces Figure 10.
func Fig10SwitchingDeadline(cfg Config) (*Table, error) {
	return figSwitching(cfg, trace.DeadlineBound,
		"Figure 10: GS-only vs RAS-only vs GRASS, deadline-bound gains (%) over LATE (FB)")
}

// Fig11SwitchingError reproduces Figure 11.
func Fig11SwitchingError(cfg Config) (*Table, error) {
	return figSwitching(cfg, trace.ErrorBound,
		"Figure 11: GS-only vs RAS-only vs GRASS, error-bound gains (%) over LATE (FB)")
}

// Fig12Strawman reproduces Figure 12: GRASS's learned switching against the
// static two-wave strawman.
func Fig12Strawman(cfg Config) (*Table, error) {
	pols := []policySpec{named("late"), named("grass-strawman"), named("grass")}
	return cfg.gainTable(&Table{
		Title:   "Figure 12: learned switching vs two-wave strawman, gains (%) over LATE (FB, Hadoop)",
		Columns: []string{"Strawman dl", "GRASS dl", "Strawman err", "GRASS err"},
	}, facebook(trace.Hadoop, pols, dlErr...), binRows(over("late", 0, 2, "grass-strawman", "grass")...))
}

// figFactors runs the factor ablation (Best-1, Best-2, full GRASS) —
// Figures 13 (deadline) and 14 (error).
func figFactors(cfg Config, b trace.BoundMode, title string) (*Table, error) {
	treats := []string{"grass-best1", "grass-best2util", "grass-best2acc", "grass"}
	pols := []policySpec{named("late")}
	for _, t := range treats {
		pols = append(pols, named(t))
	}
	var scs []scenario
	for _, fw := range hadSpark {
		scs = append(scs, facebook(fw, pols, b)...)
	}
	return cfg.gainTable(&Table{
		Title: title,
		Columns: []string{
			"Had B1", "Had B2u", "Had B2a", "Had all",
			"Spk B1", "Spk B2u", "Spk B2a", "Spk all",
		},
	}, scs, binRows(over("late", 0, 2, treats...)...))
}

// Fig13FactorsDeadline reproduces Figure 13.
func Fig13FactorsDeadline(cfg Config) (*Table, error) {
	return figFactors(cfg, trace.DeadlineBound,
		"Figure 13: switching-factor ablation, deadline-bound gains (%) over LATE (FB)")
}

// Fig14FactorsError reproduces Figure 14.
func Fig14FactorsError(cfg Config) (*Table, error) {
	return figFactors(cfg, trace.ErrorBound,
		"Figure 14: switching-factor ablation, error-bound gains (%) over LATE (FB)")
}

// Fig15Perturbation reproduces Figure 15: GRASS's sensitivity to the
// perturbation probability ξ.
func Fig15Perturbation(cfg Config) (*Table, error) {
	var scs []scenario
	var rows []gainRow
	for _, xi := range []float64{0, 0.05, 0.10, 0.15, 0.20} {
		g := grassWithXi(xi)
		rows = append(rows, gainRow{fmt.Sprintf("xi=%.0f%%", xi*100), over("late", len(scs), 4, g.name)})
		pols := []policySpec{named("late"), g}
		for _, b := range dlErr {
			for _, w := range fbBing {
				scs = append(scs, hadoop(w, b, pols))
			}
		}
	}
	return cfg.gainTable(&Table{
		Title:   "Figure 15: sensitivity to perturbation xi, gains (%) over LATE",
		Columns: []string{"FB deadline", "Bing deadline", "FB error", "Bing error"},
		Notes:   []string{"paper: performance peaks at xi = 15%"},
	}, scs, rows)
}

// ExactJobs reproduces §6.2.2's exact-computation result: GRASS speeds up
// zero-error jobs too (paper: 34%).
func ExactJobs(cfg Config) (*Table, error) {
	pols := []policySpec{named("late"), named("mantri"), named("grass")}
	var scs []scenario
	var rows []gainRow
	for _, w := range fbBing {
		sc := len(scs)
		scs = append(scs, hadoop(w, trace.ExactBound, pols))
		rows = append(rows, gainRow{w.String(), []gain{{sc, "late", "grass", nil}, {sc, "mantri", "grass", nil}}})
	}
	return cfg.gainTable(&Table{
		Title:   "Exact jobs (error bound = 0): speedup (%) of GRASS",
		Columns: []string{"vs LATE", "vs Mantri"},
	}, scs, rows)
}

// Theorem1Table tabulates the optimal proactive copy count k(x(t)) of
// Theorem 1 across remaining-work fractions and tail shapes.
func Theorem1Table() *Table {
	t := &Table{
		Title:   "Theorem 1: optimal proactive replication k(x) (T=100, S=10)",
		Columns: []string{"beta=1.259", "beta=1.8", "beta=2.5"},
	}
	for _, xfrac := range []float64{1.0, 0.5, 0.2, 0.05, 0.02, 0.005} {
		t.AddRow(fmt.Sprintf("x/x0=%.3f", xfrac),
			model.Theorem1K(xfrac, 100, 10, 1.259),
			model.Theorem1K(xfrac, 100, 10, 1.8),
			model.Theorem1K(xfrac, 100, 10, 2.5))
	}
	t.Notes = append(t.Notes,
		"early waves: sigma = max(2/beta, 1) copies (2-way only for beta<2); final wave: fill all slots")
	return t
}

// AblationTail compares speculation's value under the default body+tail
// duration model against a light-tailed variant — Guideline 1 says the
// benefit should largely disappear without a heavy tail.
func AblationTail(cfg Config) (*Table, error) {
	heavy := hadoop(trace.Facebook, trace.ExactBound, []policySpec{named("nospec"), named("ras")})
	light := heavy
	light.mutate = func(s *sched.Config) {
		// Nearly tail-free: rare, mild stragglers.
		s.TailFrac = 0.02
		s.DurationBeta = 4
		s.DurationCap = 4
	}
	return cfg.gainTable(&Table{
		Title:   "Ablation: straggler tail. RAS speedup (%) over NoSpec on exact jobs (FB, Hadoop)",
		Columns: []string{"speedup"},
	}, []scenario{heavy, light}, []gainRow{
		{"heavy tail (default)", over("nospec", 0, 1, "ras")},
		{"light tail", over("nospec", 1, 1, "ras")},
	})
}

// AblationEstimation compares GRASS's gains under the default estimator
// noise against perfect estimates — RAS's conservatism is most valuable when
// estimates are poor (§4.1).
func AblationEstimation(cfg Config) (*Table, error) {
	noisy := hadoop(trace.Facebook, trace.DeadlineBound, []policySpec{named("late"), named("grass")})
	perfect := noisy
	perfect.mutate = func(s *sched.Config) {
		s.Estimator.TRemNoise = 0
		s.Estimator.TNewNoise = 0
	}
	return cfg.gainTable(&Table{
		Title:   "Ablation: estimation noise. GRASS gains (%) over LATE, deadline-bound (FB, Hadoop)",
		Columns: []string{"gain"},
	}, []scenario{noisy, perfect}, []gainRow{
		{"default noise", over("late", 0, 1, "grass")},
		{"perfect estimates", over("late", 1, 1, "grass")},
	})
}

// All returns every experiment in presentation order. Keys are the IDs used
// by cmd/grass-bench and DESIGN.md's experiment index.
func All() []NamedExperiment {
	return []NamedExperiment{
		{"table1", "Table 1 trace details", func(c Config) (*Table, error) { return Table1(c) }},
		{"fig3", "Figure 3 Hill plot", Fig3Hill},
		{"fig4", "Figure 4 reactive policies", func(c Config) (*Table, error) { return Fig4Reactive() }},
		{"gains", "Sec 2.3 potential gains", PotentialGains},
		{"fig5", "Figure 5 deadline accuracy", Fig5Deadline},
		{"fig6", "Figure 6 bound bins", Fig6Bounds},
		{"fig7", "Figure 7 error speedup", Fig7Error},
		{"fig8", "Figure 8 optimality", Fig8Optimality},
		{"fig9", "Figure 9 DAG lengths", Fig9DAG},
		{"fig10", "Figure 10 switching (deadline)", Fig10SwitchingDeadline},
		{"fig11", "Figure 11 switching (error)", Fig11SwitchingError},
		{"fig12", "Figure 12 strawman", Fig12Strawman},
		{"fig13", "Figure 13 factors (deadline)", Fig13FactorsDeadline},
		{"fig14", "Figure 14 factors (error)", Fig14FactorsError},
		{"fig15", "Figure 15 perturbation", Fig15Perturbation},
		{"exact", "Exact jobs speedup", ExactJobs},
		{"theorem1", "Theorem 1 k(x)", func(Config) (*Table, error) { return Theorem1Table(), nil }},
		{"abl-tail", "Ablation: straggler tail", AblationTail},
		{"abl-est", "Ablation: estimation noise", AblationEstimation},
	}
}

// NamedExperiment couples an experiment ID with its runner.
type NamedExperiment struct {
	ID   string
	Desc string
	Run  func(Config) (*Table, error)
}
