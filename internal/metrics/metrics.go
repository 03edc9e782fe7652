// Package metrics aggregates simulation results the way the paper reports
// them: average accuracy for deadline-bound jobs, average (input) duration
// for error-bound jobs, relative improvement percentages, and binning by
// job size, deadline factor, error bound and DAG length.
package metrics

import (
	"fmt"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/task"
)

// MeanAccuracy returns the average accuracy over results (0 for empty).
func MeanAccuracy(rs []sched.JobResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range rs {
		s += r.Accuracy
	}
	return s / float64(len(rs))
}

// MeanInputDuration returns the average input-phase duration (the quantity
// error-bound jobs minimize).
func MeanInputDuration(rs []sched.JobResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range rs {
		s += r.InputDuration
	}
	return s / float64(len(rs))
}

// AccuracyImprovementPct is the paper's deadline-bound metric: the relative
// gain in average accuracy of treat over base, in percent.
func AccuracyImprovementPct(base, treat []sched.JobResult) float64 {
	b := MeanAccuracy(base)
	if b == 0 {
		return 0
	}
	return (MeanAccuracy(treat) - b) / b * 100
}

// SpeedupPct is the paper's error-bound metric: the relative reduction in
// average job duration of treat versus base, in percent.
func SpeedupPct(base, treat []sched.JobResult) float64 {
	b := MeanInputDuration(base)
	if b == 0 {
		return 0
	}
	return (b - MeanInputDuration(treat)) / b * 100
}

// FilterBin keeps results in one job-size bin.
func FilterBin(rs []sched.JobResult, b task.SizeBin) []sched.JobResult {
	var out []sched.JobResult
	for _, r := range rs {
		if r.Bin == b {
			out = append(out, r)
		}
	}
	return out
}

// DeadlineBin is one of Figure 6a's deadline-factor buckets (percent over
// the ideal duration).
type DeadlineBin struct {
	Lo, Hi float64 // inclusive bounds in percent
}

// DeadlineBins are the paper's buckets: 2–5%, 6–10%, 11–15%, 16–20%.
var DeadlineBins = []DeadlineBin{{2, 5}, {6, 10}, {11, 15}, {16, 20}}

// Label renders the bin as the paper prints it.
func (d DeadlineBin) Label() string { return fmt.Sprintf("%g-%g", d.Lo, d.Hi) }

// Contains reports whether r's deadline factor falls in the bin. The
// integer-percent bounds widen by half a percent on each side, so adjacent
// bins tile the axis.
func (d DeadlineBin) Contains(r sched.JobResult) bool {
	pct := r.DeadlineFactor * 100
	return pct >= d.Lo-0.5 && pct < d.Hi+0.5
}

// ErrorBin is one of Figure 6b's error-bound buckets, in percent.
type ErrorBin struct {
	Lo, Hi float64
}

// ErrorBins are the paper's buckets: 5–10%, 11–15%, 16–20%, 21–25%, 26–30%.
var ErrorBins = []ErrorBin{{5, 10}, {11, 15}, {16, 20}, {21, 25}, {26, 30}}

// Label renders the bin as the paper prints it.
func (e ErrorBin) Label() string { return fmt.Sprintf("%g-%g", e.Lo, e.Hi) }

// Contains reports whether r's error bound falls in the bin, with the same
// half-percent widening as DeadlineBin.Contains.
func (e ErrorBin) Contains(r sched.JobResult) bool {
	pct := r.Epsilon * 100
	return pct >= e.Lo-0.5 && pct < e.Hi+0.5
}

// MedianOfRuns reduces repeated experiment measurements to their median,
// matching §6.1 ("each experiment is repeated five times and we pick the
// median").
func MedianOfRuns(vals []float64) float64 {
	return dist.Median(vals)
}
