// Package exp contains one experiment runner per table and figure in the
// paper's evaluation (§2.3, §6, Appendix A). Each runner generates the
// appropriate synthetic workload, simulates it under the relevant policies
// with paired seeds, and reduces the results to the same rows or series the
// paper plots. The rendering is plain text tables; cmd/grass-bench and the
// root bench_test.go expose every runner.
package exp

import (
	"fmt"
	"io"
	"strings"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/trace"
)

// Config sizes the experiments.
type Config struct {
	// Jobs is the trace length per run.
	Jobs int
	// Seeds are the paired-run seeds; reported numbers are medians across
	// seeds (§6.1 repeats each experiment and picks the median).
	Seeds []int64
	// Machines and SlotsPerMachine size the cluster (paper: 200 nodes).
	Machines, SlotsPerMachine int
	// DeadlineLoad is the offered load for deadline-bound traces. Deadline
	// jobs shed incomplete work at their deadline, so overload is stable
	// and reproduces the busy-cluster regime the paper studies.
	DeadlineLoad float64
	// ErrorLoad is the offered load for error-bound/exact traces, which
	// must complete their work and therefore need spare capacity.
	ErrorLoad float64
	// Workers bounds how many (policy, seed) simulations a runner executes
	// concurrently; 0 means one per available core. Every run seeds its own
	// dist.NewRNG tree, so results are byte-identical for any worker count.
	Workers int
}

// Default returns the full-size configuration used for EXPERIMENTS.md.
func Default() Config {
	return Config{
		Jobs:            250,
		Seeds:           []int64{1, 2, 3},
		Machines:        200,
		SlotsPerMachine: 2,
		DeadlineLoad:    2.0,
		ErrorLoad:       0.75,
	}
}

// Quick returns a reduced configuration for benchmarks and CI.
func Quick() Config {
	c := Default()
	c.Jobs = 150
	c.Seeds = []int64{1, 2}
	return c
}

// NewFactory resolves a policy name to its factory. Names: grass,
// grass-strawman, grass-best1, grass-best2util, grass-best2acc, gs, ras,
// late, mantri, nospec, oracle. The oracle's factory implements
// spec.GroundTruth, so the simulator gives it ground-truth views wherever
// it runs.
func NewFactory(name string, seed int64) (spec.Factory, error) {
	return newFactory(name, seed, core.LearnerRing)
}

// NewFactoryLearner is NewFactory with the GRASS learner implementation
// selected: core.LearnerRing is the default per-partition ring store,
// core.LearnerSketch the mergeable store whose state folds across
// partitions (and is required for LearnEpochs > 1 replays). Non-GRASS
// policy names ignore the learner. The boolean result reports whether the
// factory sees ground truth, read from its spec.GroundTruth method.
func NewFactoryLearner(name string, seed int64, learner core.LearnerKind) (spec.Factory, bool, error) {
	f, err := newFactory(name, seed, learner)
	if err != nil {
		return nil, false, err
	}
	gt, ok := f.(spec.GroundTruth)
	return f, ok && gt.GroundTruth(), nil
}

// newFactory resolves a policy name with the given GRASS learner.
func newFactory(name string, seed int64, learner core.LearnerKind) (spec.Factory, error) {
	mk := func(cfg core.Config) (spec.Factory, error) {
		cfg.Seed = seed
		cfg.Learner = learner
		return core.New(cfg)
	}
	switch strings.ToLower(name) {
	case "grass":
		return mk(core.DefaultConfig())
	case "grass-strawman":
		c := core.DefaultConfig()
		c.Strawman = true
		return mk(c)
	case "grass-best1":
		c := core.DefaultConfig()
		c.Factors = core.FactorSet{}
		return mk(c)
	case "grass-best2util":
		c := core.DefaultConfig()
		c.Factors = core.FactorSet{Utilization: true}
		return mk(c)
	case "grass-best2acc":
		c := core.DefaultConfig()
		c.Factors = core.FactorSet{Accuracy: true}
		return mk(c)
	case "gs":
		return spec.Stateless(spec.GS{}), nil
	case "ras":
		return spec.Stateless(spec.RAS{}), nil
	case "late":
		return spec.Stateless(spec.NewLATE()), nil
	case "mantri":
		return spec.Stateless(spec.Mantri{}), nil
	case "nospec":
		return spec.Stateless(spec.NoSpec{}), nil
	case "oracle":
		return core.NewOracle(), nil
	default:
		return nil, fmt.Errorf("exp: unknown policy %q", name)
	}
}

// SchedConfig builds the simulator configuration for a framework regime.
// Spark's much shorter tasks make them "more sensitive to estimation
// errors" (§6.3.2), modelled as extra estimator noise.
func (c Config) SchedConfig(fw trace.Framework, seed int64) sched.Config {
	s := sched.DefaultConfig()
	s.Cluster.Machines = c.Machines
	s.Cluster.SlotsPerMachine = c.SlotsPerMachine
	s.Seed = seed
	if fw == trace.Spark {
		s.Estimator.TRemNoise = 0.5
		s.Estimator.TNewNoise = 0.25
	}
	return s
}

// TraceConfig builds the workload configuration for one scenario.
func (c Config) TraceConfig(w trace.Workload, fw trace.Framework, b trace.BoundMode, seed int64) trace.Config {
	tc := trace.DefaultConfig(w, fw, b)
	tc.Jobs = c.Jobs
	tc.Seed = seed
	tc.Slots = c.Machines * c.SlotsPerMachine
	if b == trace.DeadlineBound {
		tc.Load = c.DeadlineLoad
	} else {
		tc.Load = c.ErrorLoad
	}
	return tc
}

func filterResults(rs []sched.JobResult, keep func(sched.JobResult) bool) []sched.JobResult {
	out := rs[:0:0]
	for _, r := range rs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// Table is a rendered experiment result: the rows/series a paper figure
// plots.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Row is one labelled line of a Table.
type Row struct {
	Label  string
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s\n", t.Title)
	width := 14
	fmt.Fprintf(w, "%-20s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%*s", width, c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-20s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, "%*.2f", width, v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}
