package main

// Span recording from outside the program: every layer boundary the traced
// pass crosses goes through a thin wrapper that times the call and counts
// its outcome. Spans are aggregated in memory as they end (count, total
// time, a log-bucketed latency histogram), one set per engine goroutine, and
// merged when the pass is over, so no wrapper ever contends on a lock.

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approx-analytics/grass/internal/sched"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// hist is a log-linear latency histogram: 8 sub-buckets per power of two,
// so a quantile reads back within 6.25% of the recorded value.
type hist struct {
	n     [64 * 8]uint64
	count uint64
}

func histIndex(v int64) int {
	if v < 8 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	u := uint64(v)
	b := bits.Len64(u)
	return (b-3)*8 + int(u>>(b-4))&7
}

func (h *hist) add(v int64) {
	h.n[histIndex(v)]++
	h.count++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.n {
		h.n[i] += c
	}
	h.count += o.count
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q*float64(h.count) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.n {
		seen += c
		if seen >= rank {
			if i < 8 {
				return float64(i)
			}
			b, sub := i/8+3, uint64(i%8)
			lo := (8 + sub) << (b - 4)
			return float64(lo) + float64(uint64(1)<<(b-4))/2
		}
	}
	return 0
}

// span aggregates one boundary's calls.
type span struct {
	calls uint64
	ns    int64
}

func (s *span) add(d time.Duration) {
	s.calls++
	s.ns += int64(d)
}

func (s *span) merge(o span) {
	s.calls += o.calls
	s.ns += o.ns
}

func (s span) mean() float64 { return ratio(float64(s.ns), float64(s.calls)) }

// counters holds the spans recorded on one engine goroutine.
type counters struct {
	pick, pickInc span // Pick / PickIncremental
	pickHist      hist
	idle, spec    uint64 // picks that launched nothing / speculative picks
	jobEnd        span   // Observer.OnJobEnd: the learner's Record
	taskComplete  span   // ProgressObserver.OnTaskComplete
	next          span   // Source.Next
	fold          span   // the result fold
	learnMerge    span   // LearnedState.MergeLearned
}

func (c *counters) merge(o *counters) {
	c.pick.merge(o.pick)
	c.pickInc.merge(o.pickInc)
	c.pickHist.merge(&o.pickHist)
	c.idle += o.idle
	c.spec += o.spec
	c.jobEnd.merge(o.jobEnd)
	c.taskComplete.merge(o.taskComplete)
	c.next.merge(o.next)
	c.fold.merge(o.fold)
	c.learnMerge.merge(o.learnMerge)
}

func (c *counters) picked(d time.Duration, dec spec.Decision, ok, inc bool) {
	if inc {
		c.pickInc.add(d)
	} else {
		c.pick.add(d)
	}
	c.pickHist.add(int64(d))
	if !ok {
		c.idle++
	} else if dec.Speculative {
		c.spec++
	}
}

// registry hands out per-goroutine counters and merges them at the end.
type registry struct {
	mu  sync.Mutex
	all []*counters
}

func (r *registry) newCounters() *counters {
	c := &counters{}
	r.mu.Lock()
	r.all = append(r.all, c)
	r.mu.Unlock()
	return c
}

func (r *registry) total() *counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &counters{}
	for _, c := range r.all {
		t.merge(c)
	}
	return t
}

// traceFactory wraps a policy factory so every policy it builds is timed.
// The scheduler type-asserts optional interfaces on both the factory and
// the policies, so the wrappers expose exactly the ones the wrapped values
// implement: anything more or less would change which code paths run.
func traceFactory(f spec.Factory, c *counters) spec.Factory {
	base := timedFactory{f, c}
	if sl, ok := f.(spec.SharedLearner); ok {
		return struct {
			timedFactory
			timedLearner
		}{base, timedLearner{sl, c}}
	}
	return base
}

// timedLearner hands out learned states whose merges are timed, and
// unwraps them again before they reach the factory they seed.
type timedLearner struct {
	sl spec.SharedLearner
	c  *counters
}

func (t timedLearner) ExportLearned() spec.LearnedState {
	s := t.sl.ExportLearned()
	if s == nil {
		return nil
	}
	return timedState{s, t.c}
}

func (t timedLearner) SeedLearned(s spec.LearnedState) { t.sl.SeedLearned(unwrapState(s)) }

type timedState struct {
	inner spec.LearnedState
	c     *counters
}

func (t timedState) MergeLearned(o spec.LearnedState) {
	t0 := time.Now()
	t.inner.MergeLearned(unwrapState(o))
	t.c.learnMerge.add(time.Since(t0))
}

func unwrapState(s spec.LearnedState) spec.LearnedState {
	if t, ok := s.(timedState); ok {
		return t.inner
	}
	return s
}

type timedFactory struct {
	inner spec.Factory
	c     *counters
}

func (f timedFactory) Name() string { return f.inner.Name() }

func (f timedFactory) NewPolicy(jobID, numTasks int) spec.Policy {
	return tracePolicy(f.inner.NewPolicy(jobID, numTasks), f.c)
}

type timedPick struct {
	p spec.Policy
	c *counters
}

func (t timedPick) Name() string { return t.p.Name() }

func (t timedPick) Pick(ctx spec.Ctx, tasks []spec.TaskView) (spec.Decision, bool) {
	t0 := time.Now()
	d, ok := t.p.Pick(ctx, tasks)
	t.c.picked(time.Since(t0), d, ok, false)
	return d, ok
}

type timedInc struct {
	p spec.IncrementalPolicy
	c *counters
}

func (t timedInc) PickIncremental(ctx spec.Ctx, vs *spec.ViewSet) (spec.Decision, bool) {
	t0 := time.Now()
	d, ok := t.p.PickIncremental(ctx, vs)
	t.c.picked(time.Since(t0), d, ok, true)
	return d, ok
}

type timedObserver struct {
	p spec.Observer
	c *counters
}

func (t timedObserver) OnJobEnd(ctx spec.Ctx, acc, dur float64) {
	t0 := time.Now()
	t.p.OnJobEnd(ctx, acc, dur)
	t.c.jobEnd.add(time.Since(t0))
}

type timedProgress struct {
	p spec.ProgressObserver
	c *counters
}

func (t timedProgress) OnTaskComplete(completed int, at float64) {
	t0 := time.Now()
	t.p.OnTaskComplete(completed, at)
	t.c.taskComplete.add(time.Since(t0))
}

func tracePolicy(p spec.Policy, c *counters) spec.Policy {
	pick := timedPick{p, c}
	incP, isInc := p.(spec.IncrementalPolicy)
	obsP, isObs := p.(spec.Observer)
	progP, isProg := p.(spec.ProgressObserver)
	inc, obs, prog := timedInc{incP, c}, timedObserver{obsP, c}, timedProgress{progP, c}
	switch {
	case isInc && isObs && isProg:
		return struct {
			timedPick
			timedInc
			timedObserver
			timedProgress
		}{pick, inc, obs, prog}
	case isInc && isObs:
		return struct {
			timedPick
			timedInc
			timedObserver
		}{pick, inc, obs}
	case isInc && isProg:
		return struct {
			timedPick
			timedInc
			timedProgress
		}{pick, inc, prog}
	case isObs && isProg:
		return struct {
			timedPick
			timedObserver
			timedProgress
		}{pick, obs, prog}
	case isInc:
		return struct {
			timedPick
			timedInc
		}{pick, inc}
	case isObs:
		return struct {
			timedPick
			timedObserver
		}{pick, obs}
	case isProg:
		return struct {
			timedPick
			timedProgress
		}{pick, prog}
	}
	return pick
}

// recyclingSource is what every admission source of this benchmark is: the
// synthetic stream and the trace importer both recycle finished jobs.
type recyclingSource interface {
	sched.Source
	sched.Releaser
}

// firstJob records when the first job was handed out — the end of set-up.
// Partitions race to it; the earliest wins.
type firstJob struct {
	at atomic.Int64 // UnixNano, 0 until the first job
}

func (f *firstJob) mark() {
	if f.at.Load() == 0 {
		f.at.CompareAndSwap(0, time.Now().UnixNano())
	}
}

func (f *firstJob) since(t0 time.Time) time.Duration {
	at := f.at.Load()
	if at == 0 {
		return 0
	}
	return time.Duration(at - t0.UnixNano())
}

// probeSource marks the first job and, in the traced pass (c non-nil),
// times every Next.
type probeSource struct {
	src   recyclingSource
	first *firstJob
	c     *counters
}

func (p probeSource) Next() (*task.Job, bool) {
	if p.c == nil {
		j, ok := p.src.Next()
		if ok {
			p.first.mark()
		}
		return j, ok
	}
	t0 := time.Now()
	j, ok := p.src.Next()
	p.c.next.add(time.Since(t0))
	if ok {
		p.first.mark()
	}
	return j, ok
}

func (p probeSource) Release(j *task.Job) { p.src.Release(j) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
