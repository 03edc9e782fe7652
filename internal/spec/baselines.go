package spec

import "math"

// This file implements the production baselines the paper compares against:
// LATE (Zaharia et al., OSDI '08) and Mantri (Ananthanarayanan et al.,
// OSDI '10), plus a no-speculation control. Both baselines are
// approximation-oblivious: they launch unscheduled tasks in submission
// order and only differ in when they speculate — which is exactly the
// deficiency GRASS addresses (§1: "by not considering the approximation
// bounds, state-of-the-art straggler mitigation techniques ... fall
// significantly short").

// NoSpec never speculates: unscheduled tasks run in index (FIFO) order.
// It isolates the value of speculation itself in ablations.
type NoSpec struct{}

// Name returns "NoSpec".
func (NoSpec) Name() string { return "NoSpec" }

// Pick launches the lowest-index unscheduled task.
func (NoSpec) Pick(_ Ctx, tasks []TaskView) (Decision, bool) {
	for _, t := range tasks {
		if !t.Running {
			return Decision{TaskIndex: t.Index}, true
		}
	}
	return Decision{}, false
}

// PickIncremental implements IncrementalPolicy: the FIFO head in O(1).
func (NoSpec) PickIncremental(_ Ctx, vs *ViewSet) (Decision, bool) {
	if u, ok := vs.FirstUnsched(); ok {
		return Decision{TaskIndex: u}, true
	}
	return Decision{}, false
}

// CertifyDecline implements DeclineCertifier. NoSpec declines only when no
// task is unscheduled, and only a preempted or lost copy, an event that
// touches the job, makes one unscheduled again: the certificate has
// neither a wake time nor a floor.
func (NoSpec) CertifyDecline(_ Ctx, vs *ViewSet) (DeclineCert, bool) {
	if vs.unsched.len() > 0 {
		return DeclineCert{}, false
	}
	return DeclineCert{Wake: math.Inf(1)}, true
}

// LATE implements the LATE scheduler's speculation rules:
//
//   - new (unscheduled) tasks always take priority, in FIFO order;
//   - when none remain, speculate the running task with the Longest
//     Approximate Time to End, but only among tasks whose progress rate is
//     below the 25th percentile of running tasks (lateSlowTaskThreshold);
//   - never run more than two copies of a task;
//   - cap concurrently running speculative copies at 10% of the job's slot
//     share (lateSpeculativeCap).
type LATE struct {
	// buf holds reusable candidate buffers; nil (zero-value LATE) falls back
	// to per-call allocation. One scheduler goroutine owns a LATE instance,
	// so the shared buffers are safe.
	buf *lateScratch
}

const (
	// lateSlowTaskThreshold is the progress-rate percentile below which a
	// task is considered slow (LATE's default: 25th percentile).
	lateSlowTaskThreshold = 0.25
	// lateSpeculativeCap bounds speculative copies as a fraction of the
	// job's current wave width (LATE's default: 10%).
	lateSpeculativeCap = 0.10
)

type lateScratch struct {
	cands []lateCand
	rates []float64
}

type lateCand struct {
	i    int
	rate float64
}

// NewLATE returns LATE with reusable candidate buffers.
func NewLATE() LATE { return LATE{buf: &lateScratch{}} }

// Name returns "LATE".
func (LATE) Name() string { return "LATE" }

// Pick implements Policy.
func (l LATE) Pick(ctx Ctx, tasks []TaskView) (Decision, bool) {
	// New tasks first, FIFO — LATE does not reorder work by any bound.
	for _, t := range tasks {
		if !t.Running {
			return Decision{TaskIndex: t.Index}, true
		}
	}
	// Speculation cap: at most lateSpeculativeCap × wave-width speculative
	// copies at once (minimum 1 so small jobs can still speculate).
	cap := int(lateSpeculativeCap * float64(ctx.WaveWidth))
	if cap < 1 {
		cap = 1
	}
	if ctx.SpeculativeCopies >= cap {
		return Decision{}, false
	}
	// Collect progress rates of running singleton tasks.
	var cands []lateCand
	var rates []float64
	if l.buf != nil {
		cands, rates = l.buf.cands[:0], l.buf.rates[:0]
	}
	for i, t := range tasks {
		if !t.Running || !t.Speculable || t.Copies >= 2 || t.Elapsed <= 0 {
			continue
		}
		r := t.Progress / t.Elapsed
		cands = append(cands, lateCand{i, r})
		rates = append(rates, r)
	}
	if l.buf != nil {
		l.buf.cands, l.buf.rates = cands, rates
	}
	if len(cands) == 0 {
		return Decision{}, false
	}
	thr := percentile(rates, lateSlowTaskThreshold)
	// A task is slow when its progress rate falls *strictly below* the
	// threshold percentile; a stalled task (zero rate) is always slow. The
	// strictness matters: when a wave launches together and every candidate
	// reports the same rate, the percentile equals that rate, and a `rate >
	// thr → skip` test (the old code) classified every candidate as slow and
	// speculated a healthy task. Among slow tasks, pick the longest
	// approximate time to end, (1 − progress) / progress-rate; a stalled
	// task's time-to-end is +Inf, which must outrank every moving straggler
	// (the old `t_new × 100` sentinel could lose to a genuine straggler with
	// a worse estimate).
	best := -1
	var bestLeft float64
	for _, c := range cands {
		if c.rate >= thr && c.rate > 0 {
			continue // not slow
		}
		left := math.Inf(1) // stalled
		if c.rate > 0 {
			left = (1 - tasks[c.i].Progress) / c.rate
		}
		if best == -1 || left > bestLeft {
			best, bestLeft = c.i, left
		}
	}
	if best == -1 {
		return Decision{}, false
	}
	return Decision{TaskIndex: tasks[best].Index, Speculative: true}, true
}

// PickIncremental implements IncrementalPolicy: the FIFO head is O(1) and
// the percentile machinery runs over just the running set — LATE's scan
// was O(tasks) only because it walked every view to find both.
func (l LATE) PickIncremental(ctx Ctx, vs *ViewSet) (Decision, bool) {
	if u, ok := vs.FirstUnsched(); ok {
		return Decision{TaskIndex: u}, true
	}
	cap := int(lateSpeculativeCap * float64(ctx.WaveWidth))
	if cap < 1 {
		cap = 1
	}
	if ctx.SpeculativeCopies >= cap {
		return Decision{}, false
	}
	var cands []lateCand
	var rates []float64
	if l.buf != nil {
		cands, rates = l.buf.cands[:0], l.buf.rates[:0]
	}
	// The running views ascend by task index — the same relative order the
	// reference scan visits running views in, so the percentile inputs
	// and every first-wins tie-break below match it exactly. Candidates
	// carry their position in rv.
	rv := vs.RunningViews()
	for k := range rv {
		t := &rv[k]
		if !t.Speculable || t.Copies >= 2 || t.Elapsed <= 0 {
			continue
		}
		r := t.Progress / t.Elapsed
		cands = append(cands, lateCand{k, r})
		rates = append(rates, r)
	}
	if l.buf != nil {
		l.buf.cands, l.buf.rates = cands, rates
	}
	if len(cands) == 0 {
		return Decision{}, false
	}
	thr := percentile(rates, lateSlowTaskThreshold)
	best := -1
	var bestLeft float64
	for _, c := range cands {
		if c.rate >= thr && c.rate > 0 {
			continue
		}
		left := math.Inf(1)
		if c.rate > 0 {
			left = (1 - rv[c.i].Progress) / c.rate
		}
		if best == -1 || left > bestLeft {
			best, bestLeft = c.i, left
		}
	}
	if best == -1 {
		return Decision{}, false
	}
	return Decision{TaskIndex: rv[best].Index, Speculative: true}, true
}

// Mantri implements Mantri's duplicate rule: schedule a restart/duplicate
// for an outlier only when doing so is likely to reduce total resource
// usage, i.e. when the remaining time is at least twice a fresh copy
// (t_rem > 2×t_new). Unscheduled tasks still run FIFO — like LATE, Mantri
// has no notion of an approximation bound — but unlike LATE, Mantri acts on
// outliers even while unscheduled tasks remain, because its criterion
// guarantees a net resource saving.
type Mantri struct{}

// mantriThreshold is the t_rem/t_new ratio required to duplicate (paper: 2).
const mantriThreshold = 2

// Name returns "Mantri".
func (Mantri) Name() string { return "Mantri" }

// Pick implements Policy.
func (Mantri) Pick(_ Ctx, tasks []TaskView) (Decision, bool) {
	// Outlier duplication first: worst ratio wins.
	best := -1
	var bestRatio float64
	for i, t := range tasks {
		if !t.Running || !t.Speculable || t.Copies >= 2 || t.TNew <= 0 {
			continue
		}
		if r := t.TRem / t.TNew; r > mantriThreshold && (best == -1 || r > bestRatio) {
			best, bestRatio = i, r
		}
	}
	if best != -1 {
		return Decision{TaskIndex: tasks[best].Index, Speculative: true}, true
	}
	for _, t := range tasks {
		if !t.Running {
			return Decision{TaskIndex: t.Index}, true
		}
	}
	return Decision{}, false
}

// PickIncremental implements IncrementalPolicy: the outlier scan covers
// only the running set; the FIFO fallback is O(1).
func (Mantri) PickIncremental(_ Ctx, vs *ViewSet) (Decision, bool) {
	rv := vs.RunningViews()
	best := -1
	var bestRatio float64
	for k := range rv {
		t := &rv[k]
		if !t.Speculable || t.Copies >= 2 || t.TNew <= 0 {
			continue
		}
		if r := t.TRem / t.TNew; r > mantriThreshold && (best == -1 || r > bestRatio) {
			best, bestRatio = t.Index, r
		}
	}
	if best != -1 {
		return Decision{TaskIndex: best, Speculative: true}, true
	}
	if u, ok := vs.FirstUnsched(); ok {
		return Decision{TaskIndex: u}, true
	}
	return Decision{}, false
}

// percentile returns the p-quantile of xs by linear interpolation, sorting
// xs in place (the caller passes a scratch slice it no longer needs). It
// serves LATE's slow-task threshold, whose candidate sets (the running
// tasks of one job) are small enough for an insertion sort.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := xs
	// insertion sort: candidate sets are small (running tasks of one job)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
