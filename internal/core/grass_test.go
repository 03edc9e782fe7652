package core

import (
	"testing"

	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{{Xi: -0.1}, {Xi: 1.5}}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFactoryNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Xi: 0.15, Factors: AllFactors()}, "GRASS"},
		{Config{Xi: 0.15, Strawman: true}, "GRASS-Strawman"},
		{Config{Xi: 0.15}, "GRASS-Best1"},
		{Config{Xi: 0.15, Factors: FactorSet{Utilization: true}}, "GRASS-Best2(util)"},
		{Config{Xi: 0.15, Factors: FactorSet{Accuracy: true}}, "GRASS-Best2(acc)"},
	}
	for _, c := range cases {
		f, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name() != c.want {
			t.Errorf("name %q, want %q", f.Name(), c.want)
		}
	}
}

func TestPerturbationRate(t *testing.T) {
	f, err := New(Config{Xi: 0.15, Factors: AllFactors(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	n := 10000
	sampled, gsCount := 0, 0
	for i := 0; i < n; i++ {
		p := f.NewPolicy(i, 100).(*policy)
		if p.sampled {
			sampled++
			if p.samplePol == sampleGS {
				gsCount++
			}
		}
	}
	frac := float64(sampled) / float64(n)
	if frac < 0.12 || frac > 0.18 {
		t.Errorf("sampled fraction %v, want ≈0.15", frac)
	}
	gsFrac := float64(gsCount) / float64(sampled)
	if gsFrac < 0.4 || gsFrac > 0.6 {
		t.Errorf("GS fraction among samples %v, want ≈0.5", gsFrac)
	}
}

func TestZeroXiNeverSamples(t *testing.T) {
	f, _ := New(Config{Xi: 0, Factors: AllFactors(), Seed: 1})
	for i := 0; i < 100; i++ {
		if f.NewPolicy(i, 50).(*policy).sampled {
			t.Fatal("ξ=0 produced a sample job")
		}
	}
}

func TestStrawmanNeverSamples(t *testing.T) {
	f, _ := New(Config{Xi: 0.5, Strawman: true, Seed: 1})
	for i := 0; i < 100; i++ {
		if f.NewPolicy(i, 50).(*policy).sampled {
			t.Fatal("strawman produced a sample job")
		}
	}
}

func newAdaptive(t *testing.T, cfg Config, numTasks int) *policy {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := f.NewPolicy(0, numTasks).(*policy)
	p.sampled = false
	return p
}

func deadlineCtx(remaining float64, total, width int) spec.Ctx {
	return spec.Ctx{
		Kind:               task.DeadlineBound,
		RemainingTime:      remaining,
		TargetTasks:        total,
		TotalTasks:         total,
		WaveWidth:          width,
		EstimationAccuracy: 0.75,
	}
}

func errorCtx(targetLeft, total, width int) spec.Ctx {
	return spec.Ctx{
		Kind:               task.ErrorBound,
		TargetTasks:        targetLeft,
		TotalTasks:         total,
		WaveWidth:          width,
		EstimationAccuracy: 0.75,
	}
}

func TestStrawmanStaticRuleDeadline(t *testing.T) {
	p := newAdaptive(t, Config{Strawman: true}, 100)
	tasks := []spec.TaskView{{Index: 0, TNew: 5}, {Index: 1, TNew: 5}, {Index: 2, TNew: 5}}
	// Deadline far away: stays RAS.
	if p.shouldSwitch(deadlineCtx(100, 100, 10), taskViews(tasks)) {
		t.Fatal("strawman switched with a loose deadline")
	}
	// Two median task durations left: switch.
	if !p.shouldSwitch(deadlineCtx(10, 100, 10), taskViews(tasks)) {
		t.Fatal("strawman did not switch near the deadline")
	}
}

func TestStrawmanStaticRuleError(t *testing.T) {
	p := newAdaptive(t, Config{Strawman: true}, 100)
	// 50 tasks remaining, wave width 10: more than two waves → RAS.
	if p.shouldSwitch(errorCtx(50, 100, 10), taskViews(nil)) {
		t.Fatal("strawman switched with many waves remaining")
	}
	// 15 remaining ≤ 2×10 → switch.
	if !p.shouldSwitch(errorCtx(15, 100, 10), taskViews(nil)) {
		t.Fatal("strawman did not switch in the last two waves")
	}
}

func TestColdStartFallsBackToStatic(t *testing.T) {
	// No samples in the learner: adaptive GRASS must behave like the
	// strawman rather than guessing.
	p := newAdaptive(t, Config{Xi: 0.15, Factors: AllFactors()}, 100)
	tasks := []spec.TaskView{{Index: 0, TNew: 5}}
	if p.shouldSwitch(deadlineCtx(100, 100, 10), taskViews(tasks)) {
		t.Fatal("cold-start switched with a loose deadline")
	}
	if !p.shouldSwitch(deadlineCtx(8, 100, 10), taskViews(tasks)) {
		t.Fatal("cold-start did not fall back to the static rule")
	}
}

func TestLearnedSwitchDeadline(t *testing.T) {
	// GS samples complete fast early; RAS samples ramp slowly but finish
	// higher. With lots of remaining time the split search should keep RAS;
	// with little time it should switch to GS.
	f, _ := New(Config{Xi: 0.15, Factors: AllFactors(), Seed: 3})
	for i := 0; i < 5; i++ {
		// GS: reaches 60% at t=10 then flat.
		var gs Curve
		gs.Add(2, 0.3)
		gs.Add(10, 0.6)
		gs.Add(40, 0.65)
		f.learner.Record(sampleGS, task.Medium, 3, 0.75, &gs)
		// RAS: slow start, strong finish.
		var ras Curve
		ras.Add(10, 0.2)
		ras.Add(25, 0.7)
		ras.Add(40, 1.0)
		f.learner.Record(sampleRAS, task.Medium, 3, 0.75, &ras)
	}
	p := f.NewPolicy(0, 100).(*policy)
	p.sampled = false
	tasks := []spec.TaskView{{Index: 0, TNew: 5}}
	if p.shouldSwitch(deadlineCtx(40, 100, 30), taskViews(tasks)) {
		t.Fatal("switched despite RAS being predicted better over a long horizon")
	}
	if !p.shouldSwitch(deadlineCtx(6, 100, 30), taskViews(tasks)) {
		t.Fatal("did not switch with a short horizon where GS dominates")
	}
}

func TestLearnedSwitchError(t *testing.T) {
	f, _ := New(Config{Xi: 0.15, Factors: AllFactors(), Seed: 4})
	for i := 0; i < 5; i++ {
		// GS reaches small fractions very fast but is slow to high
		// fractions; RAS is linear. Splitting should favor RAS for large
		// remaining work and GS for the tail.
		var gs Curve
		gs.Add(0.2, 0.1)
		gs.Add(1, 0.2)
		gs.Add(30, 1.0)
		f.learner.Record(sampleGS, task.Medium, 3, 0.75, &gs)
		var ras Curve
		for j := 1; j <= 10; j++ {
			ras.Add(float64(j), float64(j)/10)
		}
		f.learner.Record(sampleRAS, task.Medium, 3, 0.75, &ras)
	}
	p := f.NewPolicy(0, 100).(*policy)
	p.sampled = false
	if p.shouldSwitch(errorCtx(80, 100, 30), taskViews(nil)) {
		t.Fatal("switched with 80% of the work remaining")
	}
	if !p.shouldSwitch(errorCtx(10, 100, 30), taskViews(nil)) {
		t.Fatal("did not switch with only 10% remaining")
	}
}

func TestSwitchIsSticky(t *testing.T) {
	p := newAdaptive(t, Config{Strawman: true}, 10)
	tasks := []spec.TaskView{{Index: 0, TNew: 5}}
	// Force a switch (the pick itself may decline — TNew exceeds the
	// remaining time — but the mode change must stick).
	p.Pick(deadlineCtx(1, 10, 10), tasks)
	if !p.switched {
		t.Fatal("policy did not record the switch")
	}
	// Even with a long horizon afterwards, it stays GS (switching back is
	// never considered — the job only moves toward its bound).
	p.Pick(deadlineCtx(1000, 10, 10), tasks)
	if !p.switched {
		t.Fatal("policy un-switched")
	}
}

func TestSampleJobUsesPurePolicy(t *testing.T) {
	f, _ := New(Config{Xi: 1.0, Factors: AllFactors(), Seed: 5})
	sawGS, sawRAS := false, false
	for i := 0; i < 50 && !(sawGS && sawRAS); i++ {
		p := f.NewPolicy(i, 100).(*policy)
		if !p.sampled {
			t.Fatal("ξ=1 job not sampled")
		}
		// A deadline context in which GS and RAS differ: a running task
		// with positive saving but not the lowest t_new.
		tasks := []spec.TaskView{
			{Index: 0, Running: true, Speculable: true, Copies: 1, TRem: 50, TNew: 10},
			{Index: 1, TNew: 5},
		}
		d, ok := p.Pick(deadlineCtx(100, 100, 10), tasks)
		if !ok {
			t.Fatal("sample job declined")
		}
		if d.Speculative {
			sawRAS = true // RAS prefers the positive-saving speculation
		} else {
			sawGS = true // GS prefers the shortest fresh task
		}
	}
	if !sawGS || !sawRAS {
		t.Fatalf("samples not split across policies: GS=%v RAS=%v", sawGS, sawRAS)
	}
}

func TestOnJobEndRecordsOnlySamples(t *testing.T) {
	f, _ := New(Config{Xi: 1.0, Factors: AllFactors(), Seed: 6})
	p := f.NewPolicy(0, 100).(*policy)
	p.OnTaskComplete(10, 5)
	p.OnTaskComplete(50, 9)
	p.OnJobEnd(spec.Ctx{WaveWidth: 20, EstimationAccuracy: 0.8}, 0.5, 9)
	if f.Learner().Samples(task.Medium, p.samplePol) != 1 {
		t.Fatal("sample job curve not recorded")
	}
	// Adaptive jobs record nothing.
	q := f.NewPolicy(1, 100).(*policy)
	q.sampled = false
	q.OnTaskComplete(10, 5)
	before := f.Learner().Samples(task.Medium, sampleGS) + f.Learner().Samples(task.Medium, sampleRAS)
	q.OnJobEnd(spec.Ctx{WaveWidth: 20, EstimationAccuracy: 0.8}, 0.5, 9)
	after := f.Learner().Samples(task.Medium, sampleGS) + f.Learner().Samples(task.Medium, sampleRAS)
	if after != before {
		t.Fatal("adaptive job polluted the learner")
	}
}

// TestOnlySamplesRecordCurves: OnJobEnd reads the curve of a sample job
// only, so adaptive GRASS and oracle jobs keep none.
func TestOnlySamplesRecordCurves(t *testing.T) {
	f, _ := New(Config{Xi: 0, Factors: AllFactors(), Seed: 1})
	for _, p := range []spec.Policy{f.NewPolicy(0, 100), NewOracle().NewPolicy(1, 100)} {
		g := p.(*policy)
		g.OnTaskComplete(10, 5)
		if !g.curve.Empty() {
			t.Errorf("%s: a non-sample job recorded a curve", g.Name())
		}
	}
}

func TestMedianTNew(t *testing.T) {
	if taskViews(nil).MedianTNew() != 0 {
		t.Fatal("empty median should be 0")
	}
	views := []spec.TaskView{{TNew: 3}, {TNew: 1}, {TNew: 2}}
	if got := taskViews(views).MedianTNew(); got != 2 {
		t.Fatalf("median %v, want 2", got)
	}
	views = append(views, spec.TaskView{TNew: 10})
	if got := taskViews(views).MedianTNew(); got != 2.5 {
		t.Fatalf("median %v, want 2.5", got)
	}
}
