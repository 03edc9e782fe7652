package trace

import (
	"math"
	"testing"

	"github.com/approx-analytics/grass/internal/task"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{Jobs: 0, Slots: 1, Load: 0.5},
		{Jobs: 1, Slots: 0, Load: 0.5},
		{Jobs: 1, Slots: 1, Load: 0},
		{Jobs: 1, Slots: 1, Load: 3},
		{Jobs: 1, Slots: 1, Load: 0.5, DAGLength: -1},
		{Jobs: 1, Slots: 1, Load: 0.5, DeadlineFactorRange: [2]float64{0.2, 0.1}},
		{Jobs: 1, Slots: 1, Load: 0.5, ErrorRange: [2]float64{0.5, 0.2}},
		{Jobs: 1, Slots: 1, Load: 0.5, ErrorRange: [2]float64{0.5, 1.0}},
		// Non-finite values fail every ordered comparison, so each needs
		// its own rejection.
		{Jobs: 1, Slots: 1, Load: math.NaN()},
		{Jobs: 1, Slots: 1, Load: math.Inf(1)},
		{Jobs: 1, Slots: 1, Load: 0.5, WorkInflation: math.NaN()},
		{Jobs: 1, Slots: 1, Load: 0.5, WorkInflation: math.Inf(1)},
		{Jobs: 1, Slots: 1, Load: 0.5, WorkInflation: -1},
		{Jobs: 1, Slots: 1, Load: 0.5, DeadlineFactorRange: [2]float64{math.NaN(), 0.2}},
		{Jobs: 1, Slots: 1, Load: 0.5, DeadlineFactorRange: [2]float64{0.02, math.NaN()}},
		{Jobs: 1, Slots: 1, Load: 0.5, DeadlineFactorRange: [2]float64{0.02, math.Inf(1)}},
		{Jobs: 1, Slots: 1, Load: 0.5, ErrorRange: [2]float64{math.NaN(), 0.3}},
		{Jobs: 1, Slots: 1, Load: 0.5, ErrorRange: [2]float64{0.05, math.NaN()}},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	for _, w := range []Workload{Facebook, Bing} {
		for _, f := range []Framework{Hadoop, Spark} {
			for _, b := range []BoundMode{DeadlineBound, ErrorBound, ExactBound} {
				if err := DefaultConfig(w, f, b).Validate(); err != nil {
					t.Errorf("default config %v/%v/%v invalid: %v", w, f, b, err)
				}
			}
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	cfg := DefaultConfig(Facebook, Hadoop, ErrorBound)
	cfg.Jobs = 200
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 200 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	prev := -1.0
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", j.ID, err)
		}
		if j.Arrival < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = j.Arrival
		if j.Bound.Kind != task.ErrorBound {
			t.Fatal("wrong bound kind")
		}
		if j.Bound.Epsilon < 0.05 || j.Bound.Epsilon > 0.30 {
			t.Fatalf("epsilon %v outside §6.1 range", j.Bound.Epsilon)
		}
	}
}

func TestGenerateDeadlines(t *testing.T) {
	cfg := DefaultConfig(Bing, Spark, DeadlineBound)
	cfg.Jobs = 150
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Bound.Kind != task.DeadlineBound {
			t.Fatal("wrong bound kind")
		}
		if j.DeadlineFactor < 0.02 || j.DeadlineFactor > 0.20 {
			t.Fatalf("deadline factor %v outside §6.1 range", j.DeadlineFactor)
		}
		if j.IdealDuration <= 0 {
			t.Fatal("ideal duration missing")
		}
		want := j.IdealDuration * (1 + j.DeadlineFactor)
		if math.Abs(j.Bound.Deadline-want)/want > 1e-9 {
			t.Fatalf("deadline %v inconsistent with ideal %v and factor %v",
				j.Bound.Deadline, j.IdealDuration, j.DeadlineFactor)
		}
	}
}

func TestGenerateExact(t *testing.T) {
	cfg := DefaultConfig(Facebook, Hadoop, ExactBound)
	cfg.Jobs = 50
	jobs, _ := Generate(cfg)
	for _, j := range jobs {
		if j.Bound.Kind != task.ErrorBound || j.Bound.Epsilon != 0 {
			t.Fatal("exact bound wrong")
		}
	}
}

func TestBinMixCoversAllBins(t *testing.T) {
	cfg := DefaultConfig(Facebook, Hadoop, ErrorBound)
	cfg.Jobs = 500
	jobs, _ := Generate(cfg)
	stats := Summarize(cfg, jobs)
	for _, b := range task.AllBins {
		if stats.BinCounts[b] < 20 {
			t.Errorf("bin %v has only %d jobs in 500", b, stats.BinCounts[b])
		}
	}
	if stats.Jobs != 500 || stats.TotalTasks == 0 || stats.MeanTasks <= 0 || stats.Span <= 0 {
		t.Errorf("stats incomplete: %+v", stats)
	}
}

func TestSparkTasksShorterThanHadoop(t *testing.T) {
	h := DefaultConfig(Facebook, Hadoop, ErrorBound)
	s := DefaultConfig(Facebook, Spark, ErrorBound)
	h.Jobs, s.Jobs = 50, 50
	hj, _ := Generate(h)
	sj, _ := Generate(s)
	hw := hj[0].InputWork[0]
	sw := sj[0].InputWork[0]
	if hw <= 5*sw {
		t.Fatalf("Hadoop work %v not ≫ Spark work %v", hw, sw)
	}
}

func TestDAGGeneration(t *testing.T) {
	cfg := DefaultConfig(Facebook, Hadoop, DeadlineBound)
	cfg.Jobs = 20
	cfg.DAGLength = 4
	jobs, _ := Generate(cfg)
	for _, j := range jobs {
		if j.DAGLength() != 4 {
			t.Fatalf("DAG length %d, want 4", j.DAGLength())
		}
		for _, p := range j.Phases {
			if p.NumTasks < 1 || p.WorkScale <= 0 {
				t.Fatalf("bad phase %+v", p)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig(Bing, Hadoop, DeadlineBound)
	cfg.Jobs = 60
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a {
		if a[i].NumTasks() != b[i].NumTasks() || a[i].Arrival != b[i].Arrival ||
			a[i].Bound != b[i].Bound {
			t.Fatalf("traces differ at job %d", i)
		}
	}
	cfg.Seed = 99
	c, _ := Generate(cfg)
	same := 0
	for i := range a {
		if a[i].NumTasks() == c[i].NumTasks() {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestWorkloadFrameworkStrings(t *testing.T) {
	if Facebook.String() != "Facebook" || Bing.String() != "Bing" {
		t.Fatal("workload names")
	}
	if Hadoop.String() != "Hadoop" || Spark.String() != "Spark" {
		t.Fatal("framework names")
	}
	if Workload(9).String() == "" || Framework(9).String() == "" {
		t.Fatal("unknown values should render")
	}
}

func TestBingSkewsLarger(t *testing.T) {
	fb := DefaultConfig(Facebook, Hadoop, ErrorBound)
	bg := DefaultConfig(Bing, Hadoop, ErrorBound)
	fb.Jobs, bg.Jobs = 1000, 1000
	fj, _ := Generate(fb)
	bj, _ := Generate(bg)
	fs, bs := Summarize(fb, fj), Summarize(bg, bj)
	if float64(bs.BinCounts[task.Large])/1000 <= float64(fs.BinCounts[task.Large])/1000 {
		t.Errorf("Bing large-job share %d not above Facebook's %d",
			bs.BinCounts[task.Large], fs.BinCounts[task.Large])
	}
}
