// Package estimate implements the task duration estimators of §5.1:
//
//   - t_rem, the remaining duration of a running copy, extrapolated from
//     progress reports (modelled as the true remaining time perturbed by a
//     persistent per-copy relative error — real extrapolation is linear in
//     progress and therefore noisy in exactly this way);
//   - t_new, the duration of a fresh copy, sampled from the durations of
//     completed tasks normalized by input size, with a persistent per-task
//     relative error.
//
// The paper measures moderate accuracies (72% for t_rem, 76% for t_new) and
// feeds the measured accuracy into GRASS's switching decision; Estimator
// reproduces that bookkeeping: every estimate can later be scored against
// the actual outcome, and Accuracy() reports the running average. It owns
// no randomness: each bias is drawn from the stream its caller passes, so
// the caller decides what a draw is keyed by.
package estimate

import (
	"fmt"
	"math"
	"sort"

	"github.com/approx-analytics/grass/internal/dist"
)

// Config tunes an Estimator.
type Config struct {
	// TRemNoise is the relative error sigma applied to remaining-time
	// estimates. 0 gives perfect estimates; ≈0.45 reproduces the paper's
	// ~72% measured accuracy.
	TRemNoise float64
	// TNewNoise is the additional relative error sigma applied on top of the
	// empirical new-copy estimate. ≈0.35 reproduces ~76% accuracy.
	TNewNoise float64
}

// prior is the assumed normalized task duration before any task has
// completed (a cold-start prior, like Hadoop's default of assuming tasks
// take the job's configured average).
const prior = 1

// window caps how many recent completions inform t_new.
const window = 512

// Validate checks the configuration. NaN and ±Inf are rejected explicitly:
// NaN fails every ordered comparison, so range checks alone would wave a
// NaN sigma straight into the noise samplers.
func (c Config) Validate() error {
	if !finiteNonNegative(c.TRemNoise) || !finiteNonNegative(c.TNewNoise) {
		return fmt.Errorf("estimate: noise sigmas must be finite and non-negative (trem=%v, tnew=%v)", c.TRemNoise, c.TNewNoise)
	}
	return nil
}

// finiteNonNegative reports v ∈ [0, +Inf) excluding NaN.
func finiteNonNegative(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// Estimator draws the persistent errors of t_rem / t_new estimates and
// tracks their measured accuracy. Not safe for concurrent use.
type Estimator struct {
	cfg Config

	// Ring buffer of normalized completed-task durations (eviction order)
	// plus a sorted mirror for O(log n + n) median maintenance.
	window []float64
	sorted []float64
	next   int

	tremAccSum float64
	tremN      int
	tnewAccSum float64
	tnewN      int
}

// New constructs an Estimator.
func New(cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{
		cfg:    cfg,
		window: make([]float64, 0, window),
		sorted: make([]float64, 0, window),
	}, nil
}

// SampleTRemBias draws from r a persistent multiplicative error for one
// copy's remaining-time estimates. Extrapolation error is systematic per
// copy — the same skewed progress reports produce the same skew on every
// query — so the scheduler attaches one bias to each copy rather than
// re-rolling noise per estimate (re-rolled noise would let a policy "retry
// the dice" every scheduling round and over-speculate on transient
// spikes).
func (e *Estimator) SampleTRemBias(r *dist.RNG) float64 {
	return biasFactor(e.cfg.TRemNoise, r)
}

// SampleTNewBias draws from r a persistent multiplicative error for one
// task's fresh-copy estimates (mis-sized inputs skew every t_new query for
// that task the same way).
func (e *Estimator) SampleTNewBias(r *dist.RNG) float64 {
	return biasFactor(e.cfg.TNewNoise, r)
}

// biasFactor draws 1 + N(0, sigma) from r, floored at 0.05 so estimates
// stay positive. A zero sigma draws nothing.
func biasFactor(sigma float64, r *dist.RNG) float64 {
	if sigma == 0 {
		return 1
	}
	f := 1 + sigma*r.Norm()
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// NormalizedMedian returns the median completed duration per unit work, or
// the prior before any completion. A task's t_new estimate is this median
// times its work scale times its persistent bias (§5.1: "sampling from
// durations of completed tasks normalized to input and output sizes").
func (e *Estimator) NormalizedMedian() float64 {
	n := len(e.sorted)
	if n == 0 {
		return prior
	}
	if n%2 == 1 {
		return e.sorted[n/2]
	}
	return (e.sorted[n/2-1] + e.sorted[n/2]) / 2
}

// ObserveCompletion records a completed task's duration-per-unit-work,
// updating the t_new empirical base ("the tnew values of all tasks are
// updated whenever a task completes").
func (e *Estimator) ObserveCompletion(normalizedDuration float64) {
	if normalizedDuration <= 0 {
		return
	}
	if len(e.window) < cap(e.window) {
		e.window = append(e.window, normalizedDuration)
	} else {
		e.sortedRemove(e.window[e.next])
		e.window[e.next] = normalizedDuration
		e.next = (e.next + 1) % cap(e.window)
	}
	e.sortedInsert(normalizedDuration)
}

func (e *Estimator) sortedInsert(v float64) {
	i := sort.SearchFloat64s(e.sorted, v)
	e.sorted = append(e.sorted, 0)
	copy(e.sorted[i+1:], e.sorted[i:])
	e.sorted[i] = v
}

// sortedRemove deletes one instance of v from the sorted mirror. A missing
// value means the mirror has diverged from the ring buffer — every later
// median would be silently wrong — so it panics instead of no-oping.
func (e *Estimator) sortedRemove(v float64) {
	i := sort.SearchFloat64s(e.sorted, v)
	if i >= len(e.sorted) || e.sorted[i] != v {
		panic(fmt.Sprintf("estimate: sorted mirror diverged from window: %v not found among %d values", v, len(e.sorted)))
	}
	e.sorted = append(e.sorted[:i], e.sorted[i+1:]...)
}

// Completions returns how many samples currently inform t_new.
func (e *Estimator) Completions() int { return len(e.window) }

// score converts an (estimate, actual) pair into the paper's accuracy
// measure: 1 − relative error, clamped to [0, 1].
func score(est, actual float64) float64 {
	if actual <= 0 {
		return 0
	}
	rel := (est - actual) / actual
	if rel < 0 {
		rel = -rel
	}
	if rel > 1 {
		rel = 1
	}
	return 1 - rel
}

// RecordTRem scores a past t_rem estimate against the realized remaining
// time ("when a task completes, we update the accuracy using the estimated
// and actual durations").
func (e *Estimator) RecordTRem(est, actual float64) {
	e.tremAccSum += score(est, actual)
	e.tremN++
}

// RecordTNew scores a past t_new estimate against a realized fresh-copy
// duration.
func (e *Estimator) RecordTNew(est, actual float64) {
	e.tnewAccSum += score(est, actual)
	e.tnewN++
}

// TRemAccuracy returns the measured mean accuracy of t_rem estimates, or 0.5
// (maximally uncertain) before any measurement.
func (e *Estimator) TRemAccuracy() float64 {
	if e.tremN == 0 {
		return 0.5
	}
	return e.tremAccSum / float64(e.tremN)
}

// TNewAccuracy returns the measured mean accuracy of t_new estimates, or 0.5
// before any measurement.
func (e *Estimator) TNewAccuracy() float64 {
	if e.tnewN == 0 {
		return 0.5
	}
	return e.tnewAccSum / float64(e.tnewN)
}

// Accuracy returns the combined estimation accuracy — the third factor in
// GRASS's switching decision (§4.1).
func (e *Estimator) Accuracy() float64 {
	return (e.TRemAccuracy() + e.TNewAccuracy()) / 2
}
