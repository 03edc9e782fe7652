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
	make func(seed int64) (spec.Factory, bool, error)
}

func named(n string) policySpec {
	return policySpec{name: n, make: func(seed int64) (spec.Factory, bool, error) {
		return NewFactory(n, seed)
	}}
}

func grassWithXi(xi float64) policySpec {
	name := fmt.Sprintf("grass-xi%02.0f", xi*100)
	return policySpec{name: name, make: func(seed int64) (spec.Factory, bool, error) {
		c := core.DefaultConfig()
		c.Xi = xi
		c.Seed = seed
		f, err := core.New(c)
		return f, false, err
	}}
}

// runSet holds paired results: policy name → per-seed job results.
type runSet map[string][][]sched.JobResult

// scenario is one cell of an experiment's grid: a workload/framework/bound
// combination simulated under a set of policies (with an optional simulator
// config mutation) across every seed.
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
		factory, oracleMode, err := p.make(seed)
		if err != nil {
			return err
		}
		scfg := c.SchedConfig(sc.fw, seed, oracleMode)
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

// runScenario is the single-cell convenience wrapper around runScenarios.
func (c Config) runScenario(w trace.Workload, fw trace.Framework, b trace.BoundMode, dag int,
	policies []policySpec, mutate func(*sched.Config)) (runSet, error) {

	out, err := c.runScenarios([]scenario{{w: w, fw: fw, b: b, dag: dag, policies: policies, mutate: mutate}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
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
	t := &Table{
		Title:   "Sec 2.3 potential gains: Oracle vs production baselines (%)",
		Columns: []string{"vs LATE", "vs Mantri"},
	}
	pols := []policySpec{named("late"), named("mantri"), named("oracle")}
	var scs []scenario
	for _, w := range []trace.Workload{trace.Facebook, trace.Bing} {
		for _, b := range []trace.BoundMode{trace.DeadlineBound, trace.ErrorBound} {
			scs = append(scs, scenario{w: w, fw: trace.Hadoop, b: b, dag: 1, policies: pols})
		}
	}
	sets, err := cfg.runScenarios(scs)
	if err != nil {
		return nil, err
	}
	for i, sc := range scs {
		m := boundMetric(sc.b)
		label := fmt.Sprintf("%s/%s", sc.w, boundName(sc.b))
		t.AddRow(label,
			sets[i].improvement("late", "oracle", m, nil),
			sets[i].improvement("mantri", "oracle", m, nil))
	}
	return t, nil
}

func boundName(b trace.BoundMode) string {
	switch b {
	case trace.DeadlineBound:
		return "deadline"
	case trace.ErrorBound:
		return "error"
	default:
		return "exact"
	}
}

// figBinMatrix runs GRASS against both baselines across workloads and
// frameworks and reports per-bin improvements — the engine behind Figures 5
// and 7.
func figBinMatrix(cfg Config, b trace.BoundMode, title string) (*Table, error) {
	t := &Table{
		Title: title,
		Columns: []string{
			"FB/Had/LATE", "FB/Had/Mantri", "Bing/Had/LATE", "Bing/Had/Mantri",
			"FB/Spk/LATE", "FB/Spk/Mantri", "Bing/Spk/LATE", "Bing/Spk/Mantri",
		},
	}
	pols := []policySpec{named("late"), named("mantri"), named("grass")}
	metric := boundMetric(b)
	var scs []scenario
	for _, fw := range []trace.Framework{trace.Hadoop, trace.Spark} {
		for _, w := range []trace.Workload{trace.Facebook, trace.Bing} {
			scs = append(scs, scenario{w: w, fw: fw, b: b, dag: 1, policies: pols})
		}
	}
	cells, err := cfg.runScenarios(scs)
	if err != nil {
		return nil, err
	}
	addRow := func(label string, filter func(sched.JobResult) bool) {
		vals := make([]float64, 0, 8)
		for _, rs := range cells {
			vals = append(vals,
				rs.improvement("late", "grass", metric, filter),
				rs.improvement("mantri", "grass", metric, filter))
		}
		t.AddRow(label, vals...)
	}
	for _, bin := range task.AllBins {
		addRow(bin.String(), binFilter(bin))
	}
	addRow("all", nil)
	return t, nil
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
	t := &Table{
		Title:   "Figure 6: gains (%) binned by deadline factor / error bound (vs LATE)",
		Columns: []string{"Facebook", "Bing"},
	}
	pols := []policySpec{named("late"), named("grass")}
	// One pool for all four scenarios: (a) deadline factor bins over both
	// workloads, then (b) error bins over both.
	sets, err := cfg.runScenarios([]scenario{
		{w: trace.Facebook, fw: trace.Hadoop, b: trace.DeadlineBound, dag: 1, policies: pols},
		{w: trace.Bing, fw: trace.Hadoop, b: trace.DeadlineBound, dag: 1, policies: pols},
		{w: trace.Facebook, fw: trace.Hadoop, b: trace.ErrorBound, dag: 1, policies: pols},
		{w: trace.Bing, fw: trace.Hadoop, b: trace.ErrorBound, dag: 1, policies: pols},
	})
	if err != nil {
		return nil, err
	}
	dl := sets[:2]
	for _, db := range metrics.DeadlineBins {
		t.AddRow("deadline "+db.Label()+"%",
			dl[0].improvement("late", "grass", metrics.AccuracyImprovementPct, db.Contains),
			dl[1].improvement("late", "grass", metrics.AccuracyImprovementPct, db.Contains))
	}
	// (b) error bins.
	er := sets[2:]
	for _, eb := range metrics.ErrorBins {
		t.AddRow("error "+eb.Label()+"%",
			er[0].improvement("late", "grass", metrics.SpeedupPct, eb.Contains),
			er[1].improvement("late", "grass", metrics.SpeedupPct, eb.Contains))
	}
	return t, nil
}

// Fig8Optimality reproduces Figure 8: GRASS against the optimal scheduler
// (both as improvement over LATE, Facebook workload with Spark).
func Fig8Optimality(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Figure 8: GRASS vs Optimal, improvement (%) over LATE (FB, Spark)",
		Columns: []string{"GRASS dl", "Optimal dl", "GRASS err", "Optimal err"},
	}
	pols := []policySpec{named("late"), named("grass"), named("oracle")}
	sets, err := cfg.runScenarios([]scenario{
		{w: trace.Facebook, fw: trace.Spark, b: trace.DeadlineBound, dag: 1, policies: pols},
		{w: trace.Facebook, fw: trace.Spark, b: trace.ErrorBound, dag: 1, policies: pols},
	})
	if err != nil {
		return nil, err
	}
	dl, er := sets[0], sets[1]
	add := func(label string, filter func(sched.JobResult) bool) {
		t.AddRow(label,
			dl.improvement("late", "grass", metrics.AccuracyImprovementPct, filter),
			dl.improvement("late", "oracle", metrics.AccuracyImprovementPct, filter),
			er.improvement("late", "grass", metrics.SpeedupPct, filter),
			er.improvement("late", "oracle", metrics.SpeedupPct, filter))
	}
	for _, bin := range task.AllBins {
		add(bin.String(), binFilter(bin))
	}
	add("all", nil)
	return t, nil
}

// Fig9DAG reproduces Figure 9: GRASS's gains across job DAG lengths 2–6.
func Fig9DAG(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Figure 9: gains (%) vs DAG length (GRASS over LATE)",
		Columns: []string{"FB deadline", "Bing deadline", "FB error", "Bing error"},
	}
	pols := []policySpec{named("late"), named("grass")}
	var scs []scenario
	for dag := 2; dag <= 6; dag++ {
		for _, b := range []trace.BoundMode{trace.DeadlineBound, trace.ErrorBound} {
			for _, w := range []trace.Workload{trace.Facebook, trace.Bing} {
				scs = append(scs, scenario{w: w, fw: trace.Hadoop, b: b, dag: dag, policies: pols})
			}
		}
	}
	sets, err := cfg.runScenarios(scs)
	if err != nil {
		return nil, err
	}
	for dag := 2; dag <= 6; dag++ {
		// Scenario order is (dl FB, dl Bing, err FB, err Bing) per DAG
		// length — already the column layout.
		base := (dag - 2) * 4
		row := make([]float64, 0, 4)
		for i := 0; i < 4; i++ {
			rs := sets[base+i]
			row = append(row, rs.improvement("late", "grass", boundMetric(scs[base+i].b), nil))
		}
		t.AddRow(fmt.Sprintf("DAG=%d", dag), row[0], row[1], row[2], row[3])
	}
	return t, nil
}

// figSwitching runs GS-only, RAS-only and GRASS against LATE — Figures 10
// (deadline) and 11 (error) — across Hadoop and Spark.
func figSwitching(cfg Config, b trace.BoundMode, title string) (*Table, error) {
	t := &Table{
		Title: title,
		Columns: []string{
			"Had GS", "Had RAS", "Had GRASS",
			"Spk GS", "Spk RAS", "Spk GRASS",
		},
	}
	pols := []policySpec{named("late"), named("gs"), named("ras"), named("grass")}
	metric := boundMetric(b)
	sets, err := cfg.runScenarios([]scenario{
		{w: trace.Facebook, fw: trace.Hadoop, b: b, dag: 1, policies: pols},
		{w: trace.Facebook, fw: trace.Spark, b: b, dag: 1, policies: pols},
	})
	if err != nil {
		return nil, err
	}
	add := func(label string, filter func(sched.JobResult) bool) {
		vals := make([]float64, 0, 6)
		for _, rs := range sets {
			vals = append(vals,
				rs.improvement("late", "gs", metric, filter),
				rs.improvement("late", "ras", metric, filter),
				rs.improvement("late", "grass", metric, filter))
		}
		t.AddRow(label, vals...)
	}
	for _, bin := range task.AllBins {
		add(bin.String(), binFilter(bin))
	}
	add("all", nil)
	return t, nil
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
	t := &Table{
		Title:   "Figure 12: learned switching vs two-wave strawman, gains (%) over LATE (FB, Hadoop)",
		Columns: []string{"Strawman dl", "GRASS dl", "Strawman err", "GRASS err"},
	}
	pols := []policySpec{named("late"), named("grass-strawman"), named("grass")}
	sets, err := cfg.runScenarios([]scenario{
		{w: trace.Facebook, fw: trace.Hadoop, b: trace.DeadlineBound, dag: 1, policies: pols},
		{w: trace.Facebook, fw: trace.Hadoop, b: trace.ErrorBound, dag: 1, policies: pols},
	})
	if err != nil {
		return nil, err
	}
	dl, er := sets[0], sets[1]
	add := func(label string, filter func(sched.JobResult) bool) {
		t.AddRow(label,
			dl.improvement("late", "grass-strawman", metrics.AccuracyImprovementPct, filter),
			dl.improvement("late", "grass", metrics.AccuracyImprovementPct, filter),
			er.improvement("late", "grass-strawman", metrics.SpeedupPct, filter),
			er.improvement("late", "grass", metrics.SpeedupPct, filter))
	}
	for _, bin := range task.AllBins {
		add(bin.String(), binFilter(bin))
	}
	add("all", nil)
	return t, nil
}

// figFactors runs the factor ablation (Best-1, Best-2, full GRASS) —
// Figures 13 (deadline) and 14 (error).
func figFactors(cfg Config, b trace.BoundMode, title string) (*Table, error) {
	t := &Table{
		Title: title,
		Columns: []string{
			"Had B1", "Had B2u", "Had B2a", "Had all",
			"Spk B1", "Spk B2u", "Spk B2a", "Spk all",
		},
	}
	pols := []policySpec{
		named("late"), named("grass-best1"),
		named("grass-best2util"), named("grass-best2acc"), named("grass"),
	}
	metric := boundMetric(b)
	sets, err := cfg.runScenarios([]scenario{
		{w: trace.Facebook, fw: trace.Hadoop, b: b, dag: 1, policies: pols},
		{w: trace.Facebook, fw: trace.Spark, b: b, dag: 1, policies: pols},
	})
	if err != nil {
		return nil, err
	}
	add := func(label string, filter func(sched.JobResult) bool) {
		vals := make([]float64, 0, 8)
		for _, rs := range sets {
			vals = append(vals,
				rs.improvement("late", "grass-best1", metric, filter),
				rs.improvement("late", "grass-best2util", metric, filter),
				rs.improvement("late", "grass-best2acc", metric, filter),
				rs.improvement("late", "grass", metric, filter))
		}
		t.AddRow(label, vals...)
	}
	for _, bin := range task.AllBins {
		add(bin.String(), binFilter(bin))
	}
	add("all", nil)
	return t, nil
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
	t := &Table{
		Title:   "Figure 15: sensitivity to perturbation xi, gains (%) over LATE",
		Columns: []string{"FB deadline", "Bing deadline", "FB error", "Bing error"},
	}
	xis := []float64{0, 0.05, 0.10, 0.15, 0.20}
	var scs []scenario
	grassNames := make([]string, len(xis))
	for xi1, xi := range xis {
		g := grassWithXi(xi)
		grassNames[xi1] = g.name
		pols := []policySpec{named("late"), g}
		for _, b := range []trace.BoundMode{trace.DeadlineBound, trace.ErrorBound} {
			for _, w := range []trace.Workload{trace.Facebook, trace.Bing} {
				scs = append(scs, scenario{w: w, fw: trace.Hadoop, b: b, dag: 1, policies: pols})
			}
		}
	}
	sets, err := cfg.runScenarios(scs)
	if err != nil {
		return nil, err
	}
	for xi1, xi := range xis {
		base := xi1 * 4
		row := make([]float64, 0, 4)
		for i := 0; i < 4; i++ {
			row = append(row, sets[base+i].improvement("late", grassNames[xi1], boundMetric(scs[base+i].b), nil))
		}
		t.AddRow(fmt.Sprintf("xi=%.0f%%", xi*100), row[0], row[1], row[2], row[3])
	}
	t.Notes = append(t.Notes, "paper: performance peaks at xi = 15%")
	return t, nil
}

// ExactJobs reproduces §6.2.2's exact-computation result: GRASS speeds up
// zero-error jobs too (paper: 34%).
func ExactJobs(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Exact jobs (error bound = 0): speedup (%) of GRASS",
		Columns: []string{"vs LATE", "vs Mantri"},
	}
	pols := []policySpec{named("late"), named("mantri"), named("grass")}
	workloads := []trace.Workload{trace.Facebook, trace.Bing}
	var scs []scenario
	for _, w := range workloads {
		scs = append(scs, scenario{w: w, fw: trace.Hadoop, b: trace.ExactBound, dag: 1, policies: pols})
	}
	sets, err := cfg.runScenarios(scs)
	if err != nil {
		return nil, err
	}
	for i, w := range workloads {
		t.AddRow(w.String(),
			sets[i].improvement("late", "grass", metrics.SpeedupPct, nil),
			sets[i].improvement("mantri", "grass", metrics.SpeedupPct, nil))
	}
	return t, nil
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
	t := &Table{
		Title:   "Ablation: straggler tail. RAS speedup (%) over NoSpec on exact jobs (FB, Hadoop)",
		Columns: []string{"speedup"},
	}
	pols := []policySpec{named("nospec"), named("ras")}
	sets, err := cfg.runScenarios([]scenario{
		{w: trace.Facebook, fw: trace.Hadoop, b: trace.ExactBound, dag: 1, policies: pols},
		{w: trace.Facebook, fw: trace.Hadoop, b: trace.ExactBound, dag: 1, policies: pols,
			mutate: func(s *sched.Config) {
				// Nearly tail-free: rare, mild stragglers.
				s.TailFrac = 0.02
				s.DurationBeta = 4
				s.DurationCap = 4
			}},
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("heavy tail (default)", sets[0].improvement("nospec", "ras", metrics.SpeedupPct, nil))
	t.AddRow("light tail", sets[1].improvement("nospec", "ras", metrics.SpeedupPct, nil))
	return t, nil
}

// AblationEstimation compares GRASS's gains under the default estimator
// noise against perfect estimates — RAS's conservatism is most valuable when
// estimates are poor (§4.1).
func AblationEstimation(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Ablation: estimation noise. GRASS gains (%) over LATE, deadline-bound (FB, Hadoop)",
		Columns: []string{"gain"},
	}
	pols := []policySpec{named("late"), named("grass")}
	sets, err := cfg.runScenarios([]scenario{
		{w: trace.Facebook, fw: trace.Hadoop, b: trace.DeadlineBound, dag: 1, policies: pols},
		{w: trace.Facebook, fw: trace.Hadoop, b: trace.DeadlineBound, dag: 1, policies: pols,
			mutate: func(s *sched.Config) {
				s.Estimator.TRemNoise = 0
				s.Estimator.TNewNoise = 0
			}},
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("default noise", sets[0].improvement("late", "grass", metrics.AccuracyImprovementPct, nil))
	t.AddRow("perfect estimates", sets[1].improvement("late", "grass", metrics.AccuracyImprovementPct, nil))
	return t, nil
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
