package task

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBoundKindString(t *testing.T) {
	if DeadlineBound.String() != "deadline" || ErrorBound.String() != "error" {
		t.Fatal("bound kind names wrong")
	}
	if BoundKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestBoundConstructors(t *testing.T) {
	d := NewDeadline(10)
	if d.Kind != DeadlineBound || d.Deadline != 10 {
		t.Fatal("NewDeadline wrong")
	}
	e := NewError(0.2)
	if e.Kind != ErrorBound || e.Epsilon != 0.2 {
		t.Fatal("NewError wrong")
	}
	x := Exact()
	if x.Kind != ErrorBound || x.Epsilon != 0 {
		t.Fatal("Exact should be a zero-epsilon error bound")
	}
}

func TestBoundValidate(t *testing.T) {
	bad := []Bound{
		NewDeadline(0),
		NewDeadline(-1),
		NewDeadline(math.NaN()),
		NewDeadline(math.Inf(1)),
		NewError(-0.1),
		NewError(1),
		NewError(math.NaN()),
		{Kind: BoundKind(7)},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Errorf("case %d: invalid bound %+v accepted", i, b)
		}
	}
	good := []Bound{NewDeadline(1), NewError(0), NewError(0.99)}
	for i, b := range good {
		if err := b.Validate(); err != nil {
			t.Errorf("case %d: valid bound rejected: %v", i, err)
		}
	}
}

func TestTargetTasks(t *testing.T) {
	cases := []struct {
		b    Bound
		n    int
		want int
	}{
		{NewError(0), 100, 100},
		{NewError(0.1), 100, 90},
		{NewError(0.25), 10, 8},
		{NewError(0.999), 10, 1}, // floor at 1
		{NewDeadline(5), 100, 100},
		{NewError(0.5), 0, 0},
		{NewError(0.3), 1, 1},
	}
	for i, c := range cases {
		if got := c.b.TargetTasks(c.n); got != c.want {
			t.Errorf("case %d: TargetTasks(%d) = %d, want %d", i, c.n, got, c.want)
		}
	}
}

func TestTargetTasksProperty(t *testing.T) {
	// Target is always in [1, n] for n >= 1 and monotone in (1-eps).
	if err := quick.Check(func(n int, epsRaw float64) bool {
		if n < 1 {
			n = -n + 1
		}
		if n > 1e6 {
			n = n % 1e6
			if n < 1 {
				n = 1
			}
		}
		eps := math.Mod(math.Abs(epsRaw), 1)
		got := NewError(eps).TargetTasks(n)
		return got >= 1 && got <= n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJobBasics(t *testing.T) {
	j := &Job{
		ID:        1,
		Arrival:   3,
		InputWork: []float64{1, 2, 3},
		Phases:    []Phase{{NumTasks: 2, WorkScale: 1}},
		Bound:     NewDeadline(10),
	}
	if j.NumTasks() != 3 {
		t.Errorf("NumTasks = %d", j.NumTasks())
	}
	if j.DAGLength() != 2 {
		t.Errorf("DAGLength = %d", j.DAGLength())
	}
	if j.TotalWork() != 6 {
		t.Errorf("TotalWork = %v", j.TotalWork())
	}
	if err := j.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
}

func TestJobValidateRejects(t *testing.T) {
	base := func() *Job {
		return &Job{ID: 1, InputWork: []float64{1}, Bound: NewDeadline(5)}
	}
	cases := []func(*Job){
		func(j *Job) { j.InputWork = nil },
		func(j *Job) { j.InputWork = []float64{0} },
		func(j *Job) { j.InputWork = []float64{-1} },
		func(j *Job) { j.InputWork = []float64{math.NaN()} },
		func(j *Job) { j.Phases = []Phase{{NumTasks: 0, WorkScale: 1}} },
		func(j *Job) { j.Phases = []Phase{{NumTasks: 1, WorkScale: 0}} },
		func(j *Job) { j.Phases = []Phase{{NumTasks: 1, WorkScale: math.NaN()}} },
		func(j *Job) { j.Phases = []Phase{{NumTasks: 1, WorkScale: math.Inf(1)}} },
		func(j *Job) { j.Arrival = -1 },
		func(j *Job) { j.Arrival = math.Inf(1) },
		func(j *Job) { j.Bound = NewDeadline(-1) },
	}
	for i, mutate := range cases {
		j := base()
		mutate(j)
		if j.Validate() == nil {
			t.Errorf("case %d: invalid job accepted: %+v", i, j)
		}
	}
}

func TestBins(t *testing.T) {
	cases := []struct {
		n    int
		want SizeBin
	}{
		{1, Small}, {49, Small}, {50, Small},
		{51, Medium}, {300, Medium}, {500, Medium},
		{501, Large}, {5000, Large},
	}
	for _, c := range cases {
		if got := BinOf(c.n); got != c.want {
			t.Errorf("BinOf(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if Small.String() != "<50" || Medium.String() != "51-500" || Large.String() != ">500" {
		t.Fatal("bin labels wrong")
	}
}

func TestJobBin(t *testing.T) {
	j := &Job{InputWork: make([]float64, 600)}
	for i := range j.InputWork {
		j.InputWork[i] = 1
	}
	if j.Bin() != Large {
		t.Fatalf("600-task job binned as %v", j.Bin())
	}
}
