package dist

import (
	"fmt"
	"math"
	"testing"
)

// TestRNGDeterministicReplay: identical seeds replay identical streams —
// including through Split — and different seeds diverge.
func TestRNGDeterministicReplay(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
	// Split derivation is part of the replayed state.
	as, bs := a.Split(), b.Split()
	for i := 0; i < 1000; i++ {
		if as.Float64() != bs.Float64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
	// Parents continue in lockstep after splitting.
	if a.Uint64() != b.Uint64() {
		t.Fatal("parents diverged after Split")
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 42 and 43 collide on %d/100 draws", same)
	}
}

// TestSplitIndependence: a child stream and its parent should be
// uncorrelated, and two consecutive splits should differ from each other.
func TestSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	c1 := root.Split()
	c2 := root.Split()
	const n = 4000
	match12, matchP := 0, 0
	for i := 0; i < n; i++ {
		v1, v2, vp := c1.Float64(), c2.Float64(), root.Float64()
		if math.Abs(v1-v2) < 1e-12 {
			match12++
		}
		if math.Abs(v1-vp) < 1e-12 {
			matchP++
		}
	}
	if match12 > 0 || matchP > 0 {
		t.Fatalf("split streams repeat values: %d vs sibling, %d vs parent", match12, matchP)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	sum := 0.0
	for i := 0; i < 200000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / 200000; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(2)
	const n, draws = 7, 140000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("Intn(%d) bucket %d has %d draws, want ~%.0f", n, v, c, want)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 400000
	sum, ss := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		ss += v * v
	}
	mean := sum / n
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v", mean)
	}
	if variance := ss/n - mean*mean; math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v", variance)
	}
}

// TestParetoTailIndex: the Hill estimator applied to pure Pareto samples
// recovers the shape parameter — the β = 1.259 calibration the whole
// straggler model rests on (§2.2, Figure 3).
func TestParetoTailIndex(t *testing.T) {
	for _, beta := range []float64{1.259, 2.0} {
		p := Pareto{Xm: 1, Beta: beta}
		r := NewRNG(11)
		n := 200000
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = p.Sample(r)
			if samples[i] < p.Xm {
				t.Fatalf("Pareto sample %v below xm", samples[i])
			}
		}
		pts := HillPlot(samples, 100, n/10, 16)
		if len(pts) < 10 {
			t.Fatalf("only %d Hill points", len(pts))
		}
		// Deep-tail estimate (largest k): tight for a pure Pareto.
		got := pts[len(pts)-1].Beta
		if math.Abs(got-beta)/beta > 0.05 {
			t.Fatalf("Hill beta %v, want %v", got, beta)
		}
	}
}

func TestParetoAnalyticMoments(t *testing.T) {
	p := Pareto{Xm: 2, Beta: 1.5}
	if got, want := p.Mean(), 1.5*2/0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean %v, want %v", got, want)
	}
	if got := (Pareto{Xm: 1, Beta: 1}).Mean(); !math.IsInf(got, 1) {
		t.Fatalf("beta=1 mean %v, want +Inf", got)
	}
	// Median: sample check.
	r := NewRNG(5)
	n := 200000
	s := make([]float64, n)
	for i := range s {
		s[i] = p.Sample(r)
	}
	if got, want := Median(s), p.Median(); math.Abs(got-want)/want > 0.02 {
		t.Fatalf("sample median %v, analytic %v", got, want)
	}
	// MeanResidual at ω ≥ xm is ω/(β−1); below xm it degrades to E[τ]−ω.
	if got, want := p.MeanResidual(4), 4/0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean residual %v, want %v", got, want)
	}
	if got, want := p.MeanResidual(1), p.Mean()-1; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean residual below xm %v, want %v", got, want)
	}
	// MinMean(k): min of k Paretos is Pareto(xm, kβ).
	if got, want := p.MinMean(2), 2.0*3/(3-1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("min mean %v, want %v", got, want)
	}
}

// TestTruncatedPareto: every draw respects the truncation bounds, the
// analytic mean matches Monte Carlo, and cap sanity is validated.
func TestTruncatedPareto(t *testing.T) {
	tp, err := NewTruncatedPareto(1.5, 1.259, 30)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(6)
	n := 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := tp.Sample(r)
		if v < tp.Xm || v > tp.Cap {
			t.Fatalf("sample %v outside [%v, %v]", v, tp.Xm, tp.Cap)
		}
		sum += v
	}
	mc := sum / float64(n)
	if got := tp.Mean(); math.Abs(got-mc)/mc > 0.02 {
		t.Fatalf("analytic mean %v, Monte Carlo %v", got, mc)
	}
	if _, err := NewTruncatedPareto(2, 1.2, 1.5); err == nil {
		t.Fatal("cap below xm accepted")
	}
	if _, err := NewTruncatedPareto(0, 1.2, 10); err == nil {
		t.Fatal("xm=0 accepted")
	}
	// β = 1 exercises the log branch of the mean.
	tp1, err := NewTruncatedPareto(1, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	r = NewRNG(7)
	sum = 0
	for i := 0; i < n; i++ {
		sum += tp1.Sample(r)
	}
	if mc := sum / float64(n); math.Abs(tp1.Mean()-mc)/mc > 0.02 {
		t.Fatalf("beta=1 analytic mean %v, Monte Carlo %v", tp1.Mean(), mc)
	}
}

func TestLognormalMedian(t *testing.T) {
	ln := Lognormal{Mu: 0.3, Sigma: 0.8}
	r := NewRNG(8)
	n := 200000
	s := make([]float64, n)
	for i := range s {
		s[i] = ln.Sample(r)
	}
	if got, want := Median(s), ln.Median(); math.Abs(got-want)/want > 0.02 {
		t.Fatalf("sample median %v, want exp(mu) = %v", got, want)
	}
	mean := 0.0
	for _, v := range s {
		mean += v
	}
	mean /= float64(n)
	if want := ln.Mean(); math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("sample mean %v, want %v", mean, want)
	}
}

func TestExponentialMean(t *testing.T) {
	e := Exponential{Mu: 3.5}
	r := NewRNG(9)
	n := 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := e.Sample(r)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	if mc := sum / float64(n); math.Abs(mc-e.Mu)/e.Mu > 0.02 {
		t.Fatalf("sample mean %v, want %v", mc, e.Mu)
	}
}

// TestBodyTailMixture: the straggler fraction matches TailFrac, the body
// stays in its band, the tail respects its truncation, and the mixture mean
// matches the analytic value the simulator's load calibration relies on.
func TestBodyTailMixture(t *testing.T) {
	bt, err := NewBodyTail(0.6, 1.4, 1.5, 1.259, 30, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(10)
	n := 400000
	tail := 0
	sum := 0.0
	for i := 0; i < n; i++ {
		v := bt.Sample(r)
		sum += v
		switch {
		case v >= 0.6 && v <= 1.4: // body band
		case v >= 1.5 && v <= 30: // tail band
			tail++
		default:
			t.Fatalf("sample %v in neither body [0.6,1.4] nor tail [1.5,30]", v)
		}
	}
	if frac := float64(tail) / float64(n); math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("tail fraction %v, want 0.25", frac)
	}
	mc := sum / float64(n)
	if got := bt.Mean(); math.Abs(got-mc)/mc > 0.02 {
		t.Fatalf("analytic mean %v, Monte Carlo %v", got, mc)
	}
	// The trace generator's work-inflation constant (≈1.75, the
	// arrival-spacing factor) comes from exactly this mixture.
	if mc < 1.6 || mc > 1.9 {
		t.Fatalf("default mixture mean %v drifted from the documented ~1.75", mc)
	}
	if _, err := NewBodyTail(0.6, 1.4, 1.2, 1.259, 30, 0.25); err == nil {
		t.Fatal("tail starting inside the body accepted")
	}
	if _, err := NewBodyTail(0.6, 1.4, 1.5, 1.259, 30, 0); err == nil {
		t.Fatal("zero tail fraction accepted")
	}
}

func TestSummaryStats(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if got := Median(s); got != 3 {
		t.Fatalf("median %v", got)
	}
	// Median must not reorder the caller's slice (sim.go passes live data).
	if s[0] != 5 || s[4] != 3 {
		t.Fatalf("Median mutated its input: %v", s)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("even median %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Fatalf("empty median %v", got)
	}
	if got := Max(s); got != 5 {
		t.Fatalf("max %v", got)
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("empty max should be -Inf")
	}
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138089935) > 1e-6 {
		t.Fatalf("stddev %v", got)
	}
	if StdDev([]float64{1}) != 0 || StdDev(nil) != 0 {
		t.Fatal("degenerate stddev should be 0")
	}
}

// TestHillPlotGrid: the k grid is increasing, bounded, and deduplicated.
func TestHillPlotGrid(t *testing.T) {
	r := NewRNG(12)
	p := Pareto{Xm: 1, Beta: 1.5}
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = p.Sample(r)
	}
	pts := HillPlot(samples, 10, 500, 12)
	if len(pts) < 8 {
		t.Fatalf("only %d points", len(pts))
	}
	prev := 0
	for _, pt := range pts {
		if pt.K <= prev {
			t.Fatalf("k grid not strictly increasing: %d after %d", pt.K, prev)
		}
		if pt.K < 10 || pt.K > 500 {
			t.Fatalf("k %d outside requested range", pt.K)
		}
		if pt.Beta <= 0 || math.IsNaN(pt.Beta) {
			t.Fatalf("bad beta %v at k=%d", pt.Beta, pt.K)
		}
		prev = pt.K
	}
	if HillPlot(samples[:2], 1, 10, 5) != nil {
		t.Fatal("degenerate input should yield nil")
	}
}

// TestSubSeed: child seeds are a pure function of (seed, i), distinct from
// each other and from the parent across a broad sweep, and their RNG
// streams diverge immediately — the property the partitioned simulator's
// per-shard seeding rests on.
func TestSubSeed(t *testing.T) {
	seen := make(map[int64]string)
	for _, seed := range []int64{0, 1, 2, 3, -1, 1 << 40} {
		seen[seed] = "parent"
		for i := 0; i < 64; i++ {
			c := SubSeed(seed, i)
			if c != SubSeed(seed, i) {
				t.Fatal("SubSeed not deterministic")
			}
			key := fmt.Sprintf("seed %d child %d", seed, i)
			if prev, dup := seen[c]; dup {
				t.Fatalf("SubSeed collision: %s == %s (%d)", key, prev, c)
			}
			seen[c] = key
			a, b := NewRNG(seed), NewRNG(c)
			if a.Uint64() == b.Uint64() {
				t.Fatalf("%s: child stream opens with the parent's draw", key)
			}
		}
	}
}
