package exp

import (
	"bytes"
	"strings"
	"testing"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/trace"
)

// tiny returns a fast configuration for unit tests.
func tiny() Config {
	return Config{
		Jobs:            40,
		Seeds:           []int64{1},
		Machines:        40,
		SlotsPerMachine: 2,
		DeadlineLoad:    1.3,
		ErrorLoad:       0.75,
	}
}

func TestNewFactoryNames(t *testing.T) {
	names := []string{
		"grass", "grass-strawman", "grass-best1", "grass-best2util",
		"grass-best2acc", "gs", "ras", "late", "mantri", "nospec", "oracle",
	}
	for _, n := range names {
		f, err := NewFactory(n, 1)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if f == nil {
			t.Fatalf("%s: nil factory", n)
		}
		// Only the oracle declares ground-truth views.
		_, groundTruth, err := NewFactoryLearner(n, 1, core.LearnerRing)
		if err != nil || (n == "oracle") != groundTruth {
			t.Fatalf("%s: ground truth %v, err %v", n, groundTruth, err)
		}
	}
	if _, err := NewFactory("bogus", 1); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestConfigsDiffer(t *testing.T) {
	c := Default()
	q := Quick()
	if q.Jobs >= c.Jobs || len(q.Seeds) >= len(c.Seeds) {
		t.Fatal("Quick should be smaller than Default")
	}
	// Spark gets extra estimator noise.
	h := c.SchedConfig(trace.Hadoop, 1)
	s := c.SchedConfig(trace.Spark, 1)
	if s.Estimator.TRemNoise <= h.Estimator.TRemNoise {
		t.Fatal("Spark should have noisier estimates")
	}
	// Bound mode selects the load.
	dl := c.TraceConfig(trace.Facebook, trace.Hadoop, trace.DeadlineBound, 1)
	er := c.TraceConfig(trace.Facebook, trace.Hadoop, trace.ErrorBound, 1)
	if dl.Load <= er.Load {
		t.Fatal("deadline traces should run at higher offered load")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("row1", 1.5, 2.25)
	tab.Notes = append(tab.Notes, "a note")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "row1", "1.50", "2.25", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunProducesResults(t *testing.T) {
	sets, err := tiny().runScenarios([]scenario{
		hadoop(trace.Facebook, trace.DeadlineBound, []policySpec{named("late")})})
	if err != nil {
		t.Fatal(err)
	}
	if runs := sets[0]["late"]; len(runs) != 1 || len(runs[0]) != 40 {
		t.Fatalf("%d runs, want one of 40 results", len(runs))
	}
}

func TestTable1(t *testing.T) {
	tab, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestFig3Hill(t *testing.T) {
	tab, err := Fig3Hill(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("only %d Hill points", len(tab.Rows))
	}
	// The estimated beta in the tail region should be near 1.259.
	last := tab.Rows[len(tab.Rows)-1]
	beta := last.Values[1]
	if beta < 0.9 || beta > 1.8 {
		t.Fatalf("tail beta estimate %v implausible", beta)
	}
}

func TestFig4Reactive(t *testing.T) {
	tab, err := Fig4Reactive()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 26 || len(tab.Columns) != 5 {
		t.Fatalf("shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	for _, r := range tab.Rows {
		for _, v := range r.Values {
			if v < 1-1e-9 {
				t.Fatalf("normalized ratio %v < 1", v)
			}
		}
	}
}

func TestTheorem1Table(t *testing.T) {
	tab := Theorem1Table()
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Early waves, beta<2: two-way replication; beta>2: none.
	first := tab.Rows[0]
	if first.Values[0] < 1.5 || first.Values[2] != 1 {
		t.Fatalf("theorem-1 early-wave k wrong: %+v", first)
	}
}

func TestEndToEndSmallExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// A tiny potential-gains run exercises the full pipeline.
	tab, err := PotentialGains(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}
