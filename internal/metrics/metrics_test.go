package metrics

import (
	"math"
	"reflect"
	"testing"

	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/task"
)

func res(id int, bin task.SizeBin, acc, dur float64) sched.JobResult {
	return sched.JobResult{JobID: id, Bin: bin, Accuracy: acc, InputDuration: dur}
}

func TestMeans(t *testing.T) {
	rs := []sched.JobResult{
		res(0, task.Small, 0.5, 10),
		res(1, task.Small, 0.7, 30),
	}
	if got := MeanAccuracy(rs); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("mean accuracy %v", got)
	}
	if got := MeanInputDuration(rs); got != 20 {
		t.Fatalf("mean duration %v", got)
	}
	if MeanAccuracy(nil) != 0 || MeanInputDuration(nil) != 0 {
		t.Fatal("empty means should be 0")
	}
}

func TestImprovements(t *testing.T) {
	base := []sched.JobResult{res(0, task.Small, 0.5, 100)}
	treat := []sched.JobResult{res(0, task.Small, 0.75, 60)}
	if got := AccuracyImprovementPct(base, treat); math.Abs(got-50) > 1e-9 {
		t.Fatalf("accuracy improvement %v%%, want 50", got)
	}
	if got := SpeedupPct(base, treat); math.Abs(got-40) > 1e-9 {
		t.Fatalf("speedup %v%%, want 40", got)
	}
	if AccuracyImprovementPct(nil, treat) != 0 || SpeedupPct(nil, treat) != 0 {
		t.Fatal("empty base should give 0")
	}
}

func TestFilterAndByBin(t *testing.T) {
	base := []sched.JobResult{
		res(0, task.Small, 0.5, 10),
		res(1, task.Large, 0.4, 100),
	}
	treat := []sched.JobResult{
		res(0, task.Small, 0.6, 10),
		res(1, task.Large, 0.6, 100),
	}
	if got := len(FilterBin(base, task.Small)); got != 1 {
		t.Fatalf("filtered %d", got)
	}
	// A per-bin metric over paired result sets, the way grass.FilterBin's
	// callers compute one.
	m := make(map[task.SizeBin]float64)
	for _, b := range task.AllBins {
		m[b] = AccuracyImprovementPct(FilterBin(base, b), FilterBin(treat, b))
	}
	if math.Abs(m[task.Small]-20) > 1e-9 {
		t.Fatalf("small bin %v, want 20", m[task.Small])
	}
	if math.Abs(m[task.Large]-50) > 1e-9 {
		t.Fatalf("large bin %v, want 50", m[task.Large])
	}
	if m[task.Medium] != 0 {
		t.Fatalf("empty medium bin %v, want 0", m[task.Medium])
	}
}

// binCounts reports how many of the results each bin contains.
func binCounts[B interface{ Contains(sched.JobResult) bool }](bins []B, rs []sched.JobResult) []int {
	n := make([]int, len(bins))
	for i, b := range bins {
		for _, r := range rs {
			if b.Contains(r) {
				n[i]++
			}
		}
	}
	return n
}

func TestDeadlineBins(t *testing.T) {
	rs := []sched.JobResult{
		{JobID: 0, DeadlineFactor: 0.03},
		{JobID: 1, DeadlineFactor: 0.12},
		{JobID: 2, DeadlineFactor: 0.19},
	}
	if got, want := binCounts(DeadlineBins, rs), []int{1, 0, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deadline bin counts %v, want %v", got, want)
	}
	// Edges: each bin spans [Lo-0.5, Hi+0.5) percent, so 5.5% is the first
	// value of 6-10, not the last of 2-5, and 1.5% opens 2-5.
	edges := []sched.JobResult{{DeadlineFactor: 0.015}, {DeadlineFactor: 0.055}, {DeadlineFactor: 0.01}, {DeadlineFactor: 0.205}}
	if got, want := binCounts(DeadlineBins, edges), []int{1, 1, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deadline edge counts %v, want %v", got, want)
	}
	if DeadlineBins[0].Label() != "2-5" {
		t.Fatalf("label %q", DeadlineBins[0].Label())
	}
}

func TestErrorBins(t *testing.T) {
	rs := []sched.JobResult{
		{JobID: 0, Epsilon: 0.07},
		{JobID: 1, Epsilon: 0.22},
		{JobID: 2, Epsilon: 0.29},
	}
	if got, want := binCounts(ErrorBins, rs), []int{1, 0, 0, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("error bin counts %v, want %v", got, want)
	}
	edges := []sched.JobResult{{Epsilon: 0.045}, {Epsilon: 0.105}, {Epsilon: 0.04}, {Epsilon: 0.305}}
	if got, want := binCounts(ErrorBins, edges), []int{1, 1, 0, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("error edge counts %v, want %v", got, want)
	}
	if ErrorBins[4].Label() != "26-30" {
		t.Fatalf("label %q", ErrorBins[4].Label())
	}
}

func TestMedianOfRuns(t *testing.T) {
	if got := MedianOfRuns([]float64{3, 1, 2, 5, 4}); got != 3 {
		t.Fatalf("median %v", got)
	}
	if got := MedianOfRuns([]float64{1, 2}); got != 1.5 {
		t.Fatalf("median %v", got)
	}
	if MedianOfRuns(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
}
