package sched

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/approx-analytics/grass/internal/cluster"
	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/estimate"
	"github.com/approx-analytics/grass/internal/fault"
	"github.com/approx-analytics/grass/internal/simevent"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// copyRun is one executing copy of a task. Instances are recycled through
// the simulator's free list: a copy dies (completes, is killed or is
// preempted) strictly before its slot is reused, so the dispatch hot path
// launches without allocating.
type copyRun struct {
	ev *simevent.Event
	// js/task identify the copy's owner (task is the slot into js.tasks) so
	// fn — the completion callback handed to the event engine — can be built
	// once per pooled instance and reused across recycles instead of
	// allocating a fresh closure per launch.
	js        *jobState
	fn        func(*simevent.Engine)
	machineID int
	start     float64
	duration  float64 // ground-truth total runtime
	estTNew   float64 // t_new estimate at launch, 0 when not recorded
	tremBias  float64 // persistent estimation error of this copy's t_rem

	task        int32
	speculative bool
}

// taskBlock is the hot per-task run state of a job's current phase, laid
// out struct-of-arrays and indexed by task slot. The fields the dispatch
// hot path touches every event — copy lists, completion flags, the cached
// best copies, the launch counts — each live in their own contiguous
// array, so the view init and refresh walks (and a batch of
// same-time completions) stream through memory instead of chasing one
// pointer per task. Only one phase is alive at a time, so one block
// (recycled across phases and, via the simulator's jobState pool, across
// jobs) serves the whole DAG.
type taskBlock struct {
	work       []float64
	span       []float64 // first launch to completion, for straggler stats
	firstStart []float64
	// launched counts each task's copies launched so far: the ordinal that
	// keys the next copy's draws.
	launched []int32

	// The best copy is cached on copy launch/completion/preemption instead
	// of being recomputed whenever a task's view record is derived.
	best      []*copyRun // earliest-finishing copy; first appended wins ties
	copies    [][]*copyRun
	completed []bool
	dirty     []bool // task is on its job's incremental-view dirty list
}

// reset sizes every array to n tasks and zeroes the slots, keeping pooled
// capacity (including each task's copy-list backing array) when it fits.
func (tb *taskBlock) reset(n int) {
	if cap(tb.work) < n {
		tb.work = make([]float64, n)
		tb.span = make([]float64, n)
		tb.firstStart = make([]float64, n)
		tb.launched = make([]int32, n)
		tb.best = make([]*copyRun, n)
		tb.copies = make([][]*copyRun, n)
		tb.completed = make([]bool, n)
		tb.dirty = make([]bool, n)
		return
	}
	tb.work = tb.work[:n]
	tb.span = tb.span[:n]
	tb.firstStart = tb.firstStart[:n]
	tb.launched = tb.launched[:n]
	tb.best = tb.best[:n]
	tb.copies = tb.copies[:n]
	tb.completed = tb.completed[:n]
	tb.dirty = tb.dirty[:n]
	for i := 0; i < n; i++ {
		tb.work[i], tb.span[i], tb.firstStart[i] = 0, 0, 0
		tb.launched[i] = 0
		tb.best[i] = nil
		tb.copies[i] = tb.copies[i][:0]
		tb.completed[i], tb.dirty[i] = false, false
	}
}

// recomputeBest rescans task i's copies in append order for the
// earliest-finishing one (strict < keeps the first among ties, matching
// the view the policies have always seen).
func (tb *taskBlock) recomputeBest(i int) {
	tb.best[i] = nil
	bestEnd := math.Inf(1)
	for _, c := range tb.copies[i] {
		if end := c.end(); end < bestEnd {
			tb.best[i], bestEnd = c, end
		}
	}
}

// phaseRun is one DAG phase in flight; its per-task state is the job's
// taskBlock, sized n.
type phaseRun struct {
	n         int // task count
	completed int
	target    int // completions needed to satisfy this phase
}

func (p *phaseRun) satisfied() bool { return p.completed >= p.target }

// jobState is the runtime state of one job.
type jobState struct {
	job        *task.Job
	policy     spec.IncrementalPolicy
	phase      *phaseRun
	deadlineEv *simevent.Event

	// Pooled per-job storage, kept across phases and — via the simulator's
	// jobState free list — across jobs: the reusable deadline-event closure
	// (built once per pooled instance, like copyRun.fn), the
	// struct-of-arrays task block of the current phase, the incremental
	// view state (views.go) and the phaseRun describing the phase. Only one
	// phase is alive at a time, so one block serves the whole DAG; reset
	// overwrites it when the phase advances (the old phase's copies were
	// killed and its stats recorded by then).
	deadlineFn func(*simevent.Engine)
	tasks      taskBlock
	jv         jobViews
	phaseBuf   phaseRun

	res      JobResult
	phaseIdx int
	running  int
	specRun  int

	// share is the job's max-min fair slot share, refreshed at the start of
	// each dispatch round; demandPos is the job's position in the
	// simulator's demand-ordered index.
	share     int
	demandPos int

	inputDeadlineAbs float64 // deadline jobs: when the input phase freezes
	inputEnd         float64

	done     bool
	declined bool // within the current dispatch round
}

// demand approximates the job's slot demand by the incomplete task count of
// its current phase — the quantity the waterfill allocation levels.
func (js *jobState) demand() int {
	if js.phase == nil {
		return 0
	}
	d := js.phase.n - js.phase.completed
	if d < 0 {
		d = 0
	}
	return d
}

// demandLess orders the waterfill index: ascending demand, ties by job ID.
func demandLess(a, b *jobState) bool {
	da, db := a.demand(), b.demand()
	if da != db {
		return da < db
	}
	return a.job.ID < b.job.ID
}

// Simulator executes one trace under one speculation policy family.
type Simulator struct {
	factory spec.Factory

	eng *simevent.Engine
	cl  *cluster.Cluster
	est *estimate.Estimator

	// rngPlace draws copy placement in event order. Every other straggler
	// draw is keyed: draw is re-keyed from drawSeed for each one (keyed).
	rngPlace *dist.RNG

	inputDist dist.Sampler
	interDist dist.Sampler

	// interObs records intermediate-phase spans by DAG length, the basis of
	// §5.2's deadline decomposition for multi-phase jobs, each length's
	// spans kept sorted on insert so the median an admission needs is a
	// read. Capped at maxInterObs samples per length so DAG replays stay
	// bounded.
	interObs map[int][]float64

	// Admission state (RunSource): the source being drained, its optional
	// recycler, the job whose arrival event is pending (nil exactly when no
	// arrival is queued), the shared arrival closure, and prevArrival, the
	// monotonicity watermark. srcErr records a mid-stream validation
	// failure; admission stops and the error surfaces once jobs drain.
	src        Source
	rel        Releaser
	pendingJob *task.Job
	arrivalFn  func(*simevent.Engine)
	srcErr     error

	// flt is the fault injector, nil without a fault schedule — the nil
	// check is the entire hot-path cost of the feature when disabled.
	flt *faultInjector

	// onResult, when set, receives each finished job's result instead of
	// s.results accumulating them.
	onResult func(JobResult)

	// ctx, when set, cancels the run: the event loop checks it every
	// ctxCheckEvery events and Run/RunSource return ctx.Err().
	ctx context.Context

	// checkViews, when set (differential tests), observes every launch
	// attempt right after the policy decided, with the refreshed ViewSet
	// still untouched by the launch itself.
	checkViews func(js *jobState, ctx spec.Ctx, vs *spec.ViewSet, d spec.Decision, ok bool)

	active  []*jobState
	results []JobResult

	// byDemand is the demand-ordered job index the waterfill share
	// computation walks: every non-done job, sorted by (demand, job ID) and
	// maintained incrementally as jobs arrive, complete tasks, change phase
	// and finish — so each dispatch round costs O(jobs) instead of
	// O(jobs·log jobs) with fresh allocations.
	byDemand []*jobState
	// dheap is the reusable deficit-ordered max-heap the dispatch round pops
	// the most underserved job from.
	dheap []*jobState

	copyPool []*copyRun
	// jsPool recycles finished jobs' runtime state — the jobState itself,
	// its incremental ViewSet arrays, dirty list and phase task blocks keep
	// their capacity across jobs, so a long replay admits without
	// reallocating per-job state (the PR-4 follow-up: the incremental path
	// cost ~0.3 allocs/event in per-job slices).
	jsPool []*jobState

	// runViews is the running-view buffer every job's ViewSet shares:
	// launch attempts never overlap, so one buffer serves them all.
	runViews spec.RunBuf

	cfg          Config
	draw         dist.RNG
	drawSeed     int64
	prevArrival  float64
	utilIntegral float64
	lastUtilT    float64

	// viewTouches counts task records derived (at a phase's init and for
	// every dirtied incomplete task at a refresh); with launchAttempts it
	// yields the touches-per-attempt figure BENCH_sim.json tracks
	// (O(dirtied), not O(running)).
	// pairRechecks counts the (TNew, index) neighbour pairs rechecked
	// after estimator-median moves — the near-tied ones only.
	viewTouches    uint64
	pairRechecks   uint64
	launchAttempts uint64

	// oracle is set when the factory implements spec.GroundTruth: policies
	// then see exact durations, and the estimator is neither sampled nor
	// scored.
	oracle bool
}

// TouchStats reports the simulator's view-maintenance work and how many
// launch attempts ran. viewTouches counts task records re-derived (every
// incomplete task at a phase's first attempt, then only the incomplete
// tasks an event dirtied). Not counted: completed tasks leaving the set,
// which re-derive nothing, and running views evaluated on read, once per
// attempt. pairRechecks counts the neighbour pairs of the unscheduled
// (TNew, index) order rechecked after estimator-median moves, which only
// near-tied pairs need.
func (s *Simulator) TouchStats() (viewTouches, pairRechecks, launchAttempts uint64) {
	return s.viewTouches, s.pairRechecks, s.launchAttempts
}

// end is the copy's finish time.
func (c *copyRun) end() float64 { return c.start + c.duration }

// newCopy takes a copyRun from the free list (or mints one), owned by job
// js's task slot ti.
func (s *Simulator) newCopy(js *jobState, ti int) *copyRun {
	if n := len(s.copyPool); n > 0 {
		c := s.copyPool[n-1]
		s.copyPool = s.copyPool[:n-1]
		*c = copyRun{js: js, task: int32(ti), fn: c.fn}
		return c
	}
	c := &copyRun{js: js, task: int32(ti)}
	c.fn = func(*simevent.Engine) { s.onCopyComplete(c.js, int(c.task), c) }
	return c
}

// freeCopy returns a dead copy (scored, released, unlinked) to the pool.
func (s *Simulator) freeCopy(c *copyRun) {
	c.js, c.task, c.ev = nil, 0, nil
	s.copyPool = append(s.copyPool, c)
}

// takeJobState takes the pooled jobState whose task capacity best fits a
// job whose largest phase has n tasks, or mints one. Every phase keeps a
// ViewSet of its task capacity, so best fit, unlike LIFO (which hands a
// 1-task job a 256-task job's arrays), bounds the capacity that active and
// pooled states hold. The caller (admit) overwrites every live field;
// pooled storage arrives reset by freeJobState with capacity intact.
func (s *Simulator) takeJobState(n int) *jobState {
	if len(s.jsPool) > 0 {
		bi := 0
		for i, js := range s.jsPool {
			if betterFit(cap(js.tasks.work), cap(s.jsPool[bi].tasks.work), n) {
				bi = i
			}
		}
		js, last := s.jsPool[bi], len(s.jsPool)-1
		s.jsPool[bi], s.jsPool[last] = s.jsPool[last], nil
		s.jsPool = s.jsPool[:last]
		return js
	}
	js := &jobState{}
	js.deadlineFn = func(*simevent.Engine) { s.onInputDeadline(js) }
	return js
}

// betterFit reports whether task capacity c serves an n-task job better
// than capacity b: a fit beats a miss, the smaller of two fits wins, and
// the larger of two misses (the least to grow) wins.
func betterFit(c, b, n int) bool {
	if c >= n {
		return b < n || c < b
	}
	return b < n && c > b
}

// freeJobState recycles a finished job's runtime state: references are
// dropped and scalars zeroed, while the pooled storage — the incremental
// ViewSet's arrays, the dirty list, the phase task blocks, the deadline
// closure — keeps its capacity for the best-fitting later admission
// (takeJobState).
func (s *Simulator) freeJobState(js *jobState) {
	jv := js.jv
	jv.invalidate()
	tasks := js.tasks
	deadlineFn := js.deadlineFn
	*js = jobState{jv: jv, tasks: tasks, deadlineFn: deadlineFn}
	s.jsPool = append(s.jsPool, js)
}

// insertDemand places a newly admitted job into the demand-ordered index.
func (s *Simulator) insertDemand(js *jobState) {
	lo, hi := 0, len(s.byDemand)
	for lo < hi {
		mid := (lo + hi) / 2
		if demandLess(s.byDemand[mid], js) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.byDemand = append(s.byDemand, nil)
	copy(s.byDemand[lo+1:], s.byDemand[lo:])
	s.byDemand[lo] = js
	for i := lo; i < len(s.byDemand); i++ {
		s.byDemand[i].demandPos = i
	}
}

// removeDemand drops a finished job from the demand-ordered index.
func (s *Simulator) removeDemand(js *jobState) {
	i := js.demandPos
	copy(s.byDemand[i:], s.byDemand[i+1:])
	s.byDemand = s.byDemand[:len(s.byDemand)-1]
	for ; i < len(s.byDemand); i++ {
		s.byDemand[i].demandPos = i
	}
	js.demandPos = -1
}

// repositionDemand restores order after js's demand changed (a task
// completed, or the job advanced to a new phase). Single-element moves keep
// the index sorted in O(distance moved), which for the common
// one-completion decrement is a handful of swaps.
func (s *Simulator) repositionDemand(js *jobState) {
	i := js.demandPos
	for i > 0 && demandLess(js, s.byDemand[i-1]) {
		s.byDemand[i] = s.byDemand[i-1]
		s.byDemand[i].demandPos = i
		i--
	}
	for i < len(s.byDemand)-1 && demandLess(s.byDemand[i+1], js) {
		s.byDemand[i] = s.byDemand[i+1]
		s.byDemand[i].demandPos = i
		i++
	}
	s.byDemand[i] = js
	js.demandPos = i
}

// intermediateBeta is the (lighter) Pareto tail of intermediate-phase
// tasks, which the paper notes "have relatively fewer stragglers" (§5.2).
const intermediateBeta = 2.5

// New builds a simulator for cfg driving the given policy family.
func New(cfg Config, factory spec.Factory) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("sched: nil policy factory")
	}
	root := dist.NewRNG(cfg.Seed)
	clRNG := root.Split()
	s := &Simulator{
		cfg:      cfg,
		factory:  factory,
		eng:      simevent.New(),
		rngPlace: root.Split(),
		drawSeed: dist.SubSeed(cfg.Seed, fault.DrawTag),
		interObs: make(map[int][]float64),
	}
	if gt, ok := factory.(spec.GroundTruth); ok {
		s.oracle = gt.GroundTruth()
	}
	var err error
	if s.cl, err = cluster.New(cfg.Cluster, clRNG); err != nil {
		return nil, err
	}
	if s.est, err = estimate.New(cfg.Estimator); err != nil {
		return nil, err
	}
	if s.inputDist, err = newFactorDist(cfg.DurationBeta, cfg.DurationCap, cfg.TailFrac, cfg.TailStart); err != nil {
		return nil, err
	}
	// Intermediate tasks straggle less (§5.2): halve the tail probability
	// and lighten its shape to intermediateBeta. Clamp before halving —
	// Validate bounds TailFrac to (0, 1], so the clamp only matters for
	// callers that skipped it, but clamping after the division could never
	// trigger at all.
	interTail := cfg.TailFrac
	if interTail > 1 {
		interTail = 1
	}
	interTail /= 2
	if s.interDist, err = newFactorDist(intermediateBeta, cfg.DurationCap, interTail, cfg.TailStart); err != nil {
		return nil, err
	}
	// The injector derives its randomness from the simulation seed through
	// a reserved SubSeed tag (never root.Split()), so enabling faults does
	// not perturb the placement stream or the keyed draws — and a zero
	// schedule builds nothing at all.
	if cfg.Faults.Enabled() {
		s.flt = newFaultInjector(s, cfg.Faults)
	}
	return s, nil
}

// Run simulates a materialized trace to completion and returns aggregate
// statistics. jobs must be sorted by arrival time. The whole trace is
// validated up front, so a bad job fails the run before anything is
// simulated; the slice is then replayed through RunSource, the one
// admission path.
func (s *Simulator) Run(jobs []*task.Job) (*RunStats, error) {
	prev := math.Inf(-1)
	for _, j := range jobs {
		if err := checkJob(j, prev); err != nil {
			return nil, err
		}
		prev = j.Arrival
	}
	return s.RunSource(&sliceSource{jobs: jobs})
}

// ctxCheckEvery is how many events fire between context checks. Large
// enough that the check (one atomic load inside ctx.Err) vanishes next to
// the per-event work, small enough that cancellation lands within
// microseconds of wall clock on any realistic event rate.
const ctxCheckEvery = 4096

// SetContext installs a cancellation context: Run and RunSource return
// ctx.Err() promptly once ctx is done, checked every ctxCheckEvery events.
// A cancelled simulator's internal pools and the partially simulated state
// are abandoned in a consistent state (the loop only stops between events),
// but the simulator itself must not be reused — build a fresh one. Must be
// called before Run/RunSource. A nil ctx (the default) disables checking.
func (s *Simulator) SetContext(ctx context.Context) { s.ctx = ctx }

// Utilization reports the cluster's instantaneous slot utilization — a
// telemetry gauge for live serving. Only safe from the simulator's own
// goroutine (e.g. inside an OnResult handler).
func (s *Simulator) Utilization() float64 { return s.cl.Utilization() }

// VirtualNow reports the simulation clock — same access contract as
// Utilization.
func (s *Simulator) VirtualNow() float64 { return s.eng.Now() }

// finishRun drains the event queue and assembles the run statistics.
func (s *Simulator) finishRun() (*RunStats, error) {
	limit := s.cfg.MaxEvents
	if limit == 0 {
		limit = 50_000_000
	}
	var check func() error
	if s.ctx != nil {
		check = s.ctx.Err
	}
	if _, err := s.eng.RunEvery(limit, ctxCheckEvery, check); err != nil {
		return nil, err
	}
	// A cancel that lands in the final partial batch (or after the queue
	// drained) still surfaces: once ctx is done the run NEVER reports
	// success, so callers can rely on cancel ⇒ ctx.Err().
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
	}
	if s.srcErr != nil {
		return nil, s.srcErr
	}
	if len(s.active) > 0 {
		return nil, fmt.Errorf("sched: event queue drained with %d jobs unfinished (policy %s declined forever?)",
			len(s.active), s.factory.Name())
	}
	if s.onResult == nil {
		sort.Slice(s.results, func(i, j int) bool { return s.results[i].JobID < s.results[j].JobID })
	}
	makespan := s.eng.Now()
	s.noteUtil()
	stats := &RunStats{
		Results:           s.results,
		Makespan:          makespan,
		Events:            s.eng.Fired(),
		EstimatorAccuracy: s.est.Accuracy(),
	}
	if s.flt != nil {
		stats.Faults = s.flt.stats
	}
	if makespan > 0 {
		stats.MeanUtilization = s.utilIntegral / makespan
	}
	return stats, nil
}

// noteUtil integrates utilization over time; call before occupancy changes.
func (s *Simulator) noteUtil() {
	now := s.eng.Now()
	s.utilIntegral += s.cl.Utilization() * (now - s.lastUtilT)
	s.lastUtilT = now
}

// admit creates the job's runtime state, schedules its deadline, and tries
// to give it slots.
func (s *Simulator) admit(j *task.Job) {
	if s.flt != nil {
		s.flt.wake()
	}
	maxTasks := j.NumTasks()
	for _, p := range j.Phases {
		maxTasks = max(maxTasks, p.NumTasks)
	}
	js := s.takeJobState(maxTasks)
	js.job = j
	p := s.factory.NewPolicy(j.ID, j.NumTasks())
	inc, ok := p.(spec.IncrementalPolicy)
	if !ok {
		panic(fmt.Sprintf("sched: policy %s does not implement spec.IncrementalPolicy", p.Name()))
	}
	js.policy = inc
	js.res = JobResult{
		JobID:          j.ID,
		NumTasks:       j.NumTasks(),
		Bin:            j.Bin(),
		Kind:           j.Bound.Kind,
		Deadline:       j.Bound.Deadline,
		Epsilon:        j.Bound.Epsilon,
		DeadlineFactor: j.DeadlineFactor,
		DAGLength:      j.DAGLength(),
	}
	js.phase = s.newInputPhase(js, j)
	s.active = append(s.active, js)
	s.insertDemand(js)
	if j.Bound.Kind == task.DeadlineBound {
		inputBudget := j.Bound.Deadline - s.intermediateEstimate(j)
		if min := 0.05 * j.Bound.Deadline; inputBudget < min {
			inputBudget = min
		}
		js.inputDeadlineAbs = j.Arrival + inputBudget
		js.deadlineEv = s.eng.At(js.inputDeadlineAbs, js.deadlineFn)
	}
	s.dispatch()
}

// newInputPhase builds the job's input phase in js's pooled task block
// (struct-of-arrays, not one object per task — and on a recycled jobState,
// no alloc at all).
func (s *Simulator) newInputPhase(js *jobState, j *task.Job) *phaseRun {
	n := len(j.InputWork)
	js.tasks.reset(n)
	copy(js.tasks.work, j.InputWork)
	js.phaseBuf = phaseRun{n: n, target: j.Bound.TargetTasks(n)}
	return &js.phaseBuf
}

// intermediateEstimate predicts the time the job's intermediate phases will
// need, to subtract from the deadline (§5.2): the median of observed spans
// of completed jobs with the same DAG length, falling back to an analytic
// estimate before enough samples exist.
func (s *Simulator) intermediateEstimate(j *task.Job) float64 {
	if len(j.Phases) == 0 {
		return 0
	}
	if obs := s.interObs[j.DAGLength()]; len(obs) >= 3 {
		return sortedMedian(obs)
	}
	share := s.fairShare(1)
	meanFactor := s.interDist.Mean()
	est := 0.0
	for _, p := range j.Phases {
		waves := math.Ceil(float64(p.NumTasks) / float64(share))
		est += waves * p.WorkScale * meanFactor
	}
	return est
}

// fairShare returns the slot share of one job when extra more jobs join the
// current active set.
func (s *Simulator) fairShare(extra int) int {
	n := len(s.byDemand) + extra
	if n < 1 {
		n = 1
	}
	share := s.cl.TotalSlots() / n
	if share < 1 {
		share = 1
	}
	return share
}

// dispatch fills free slots max-min fairly: repeatedly offer a slot to the
// active job holding the fewest running copies; a job that declines (its
// policy finds nothing worth launching) is skipped for the rest of the
// round. This is the fair scheduler the paper assumes ("within the slots
// allocated to the job, typically based on fair allocations", §8).
//
// The round is allocation-free: shares come from one O(jobs) walk over the
// maintained demand index, and the most-underserved job comes from a
// reusable deficit-ordered heap — only the popped or launched-into top entry
// ever moves, so each slot costs O(log jobs) instead of a full rescan.
func (s *Simulator) dispatch() {
	s.refreshShares()
	h := s.dheap[:0]
	for _, js := range s.byDemand {
		js.declined = false
		h = append(h, js)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownDeficit(h, i)
	}
	for s.cl.FreeSlots() > 0 {
		if len(h) == 0 {
			// Every job declined; the remaining free slots stay free.
			s.dheap = h
			return
		}
		// Most underserved job first (largest share deficit); jobs beyond
		// their share may still use leftover slots (work conservation).
		best := h[0]
		if s.tryLaunch(best) {
			// best.running grew, shrinking its deficit: restore heap order.
			siftDownDeficit(h, 0)
		} else {
			best.declined = true
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
			siftDownDeficit(h, 0)
		}
	}
	s.dheap = h
	s.preemptForFairness()
}

// refreshShares recomputes max-min fair slot shares over job demands: a job
// demanding less than the equal split keeps its demand, and the slack is
// redistributed among the bigger jobs (the water-filling allocation fair
// schedulers implement). The demand-ordered index is maintained across
// events, so this is a single O(jobs) walk with no sorting or allocation.
func (s *Simulator) refreshShares() {
	remaining := s.cl.TotalSlots()
	n := len(s.byDemand)
	for i, js := range s.byDemand {
		level := remaining / (n - i)
		give := js.demand()
		if give > level {
			give = level
		}
		js.share = give
		remaining -= give
	}
}

// deficitBetter reports whether a should be offered a slot before b: larger
// share deficit first, then fewer running copies, then lower job ID — a
// total order, so the dispatch sequence is deterministic.
func deficitBetter(a, b *jobState) bool {
	da, db := a.share-a.running, b.share-b.running
	if da != db {
		return da > db
	}
	if a.running != b.running {
		return a.running < b.running
	}
	return a.job.ID < b.job.ID
}

// siftDownDeficit restores the max-heap property of h from index i.
func siftDownDeficit(h []*jobState, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && deficitBetter(h[r], h[l]) {
			m = r
		}
		if !deficitBetter(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// preemptForFairness restores max-min fairness when the cluster is full: a
// job strictly below its fair share may take slots from jobs strictly above
// theirs, killing the over-share job's youngest copy (the least work lost —
// the rule Hadoop's fair scheduler uses). Without preemption a job arriving
// into a busy cluster waits for task completions and short deadline-bound
// jobs starve behind long copies.
func (s *Simulator) preemptForFairness() {
	for {
		// Neediest under-share job that still wants work.
		var claimant *jobState
		claimDef := 0
		for _, js := range s.active {
			if js.done || js.declined {
				continue
			}
			if def := js.share - js.running; def > claimDef ||
				(def == claimDef && def > 0 && js.job.ID < claimant.job.ID) {
				claimant, claimDef = js, def
			}
		}
		if claimant == nil {
			return
		}
		// Most over-share job to take a slot from.
		var victim *jobState
		victimExcess := 0
		for _, js := range s.active {
			if js.done {
				continue
			}
			if ex := js.running - js.share; ex > victimExcess {
				victim, victimExcess = js, ex
			}
		}
		if victim == nil {
			return
		}
		if !s.preemptYoungest(victim) {
			return
		}
		if !s.tryLaunch(claimant) {
			claimant.declined = true
			// The freed slot stays free for the next event; stop rather
			// than churn more of the victim's work.
			return
		}
	}
}

// preemptYoungest kills the victim's most recently launched copy, returning
// the task to the unscheduled pool if that was its only copy.
func (s *Simulator) preemptYoungest(victim *jobState) bool {
	if victim.phase == nil {
		return false
	}
	tb := &victim.tasks
	ti, ci := -1, -1
	for i := 0; i < victim.phase.n; i++ {
		for k, c := range tb.copies[i] {
			if ci == -1 || c.start > tb.copies[ti][ci].start {
				ti, ci = i, k
			}
		}
	}
	if ci == -1 {
		return false
	}
	s.noteUtil()
	c := tb.copies[ti][ci]
	victim.res.Preempted += s.removeCopies(victim, ti, func(o *copyRun) bool { return o == c })
	return true
}

// tryLaunch asks the job's policy for a launch from the maintained
// ViewSet (refreshed in O(running + dirtied)) and executes it.
func (s *Simulator) tryLaunch(js *jobState) bool {
	phase := js.phase
	if phase == nil || phase.satisfied() {
		return false
	}
	ctx := s.buildCtx(js)
	s.launchAttempts++
	vs := s.refreshViews(js)
	if vs.Len() == 0 {
		return false
	}
	d, ok := js.policy.PickIncremental(ctx, vs)
	if s.checkViews != nil {
		s.checkViews(js, ctx, vs, d, ok)
	}
	if !ok {
		return false
	}
	if d.TaskIndex < 0 || d.TaskIndex >= phase.n {
		panic(fmt.Sprintf("sched: policy %s picked invalid task %d", js.policy.Name(), d.TaskIndex))
	}
	if js.tasks.completed[d.TaskIndex] {
		panic(fmt.Sprintf("sched: policy %s picked completed task %d", js.policy.Name(), d.TaskIndex))
	}
	// The estimate the policy saw, for accuracy scoring.
	s.launch(js, d.TaskIndex, d.Speculative, vs.At(d.TaskIndex).TNew)
	return true
}

// launch starts one copy of task slot ti on a free slot.
func (s *Simulator) launch(js *jobState, ti int, speculative bool, estTNew float64) {
	s.noteUtil()
	m, ok := s.cl.Acquire(s.rngPlace)
	if !ok {
		panic("sched: launch without a free slot")
	}
	tb := &js.tasks
	ord := tb.launched[ti]
	tb.launched[ti]++
	now := s.eng.Now()
	c := s.newCopy(js, ti)
	c.machineID = m.ID
	c.start = now
	c.duration = tb.work[ti] * s.factor(js, ti, ord) * m.Slowdown
	c.speculative = speculative
	c.tremBias = 1
	if !s.oracle {
		c.estTNew = estTNew
		c.tremBias = s.est.SampleTRemBias(s.keyed(keyTRem, js, ti, ord))
	}
	if len(tb.copies[ti]) == 0 {
		tb.firstStart[ti] = now
	}
	tb.copies[ti] = append(tb.copies[ti], c)
	if tb.best[ti] == nil || c.end() < tb.best[ti].end() {
		tb.best[ti] = c
	}
	js.running++
	js.res.Launched++
	if speculative {
		js.specRun++
		js.res.Speculative++
	}
	c.ev = s.eng.At(now+c.duration, c.fn)
	s.dirtyTask(js, ti)
}

// The kinds of keyed draw, the last component of a draw's key.
const (
	keyFactor = iota // a copy's duration factor
	keyTRem          // a copy's t_rem bias
	keyTNew          // a task's t_new bias
)

// keyed re-keys the simulator's draw stream to (job, phase, task slot ti,
// copy ordinal ord, kind) and returns it. Every straggler draw is a pure
// function of its key, so two policies draw the same luck for the same
// copy whatever order they launch in.
func (s *Simulator) keyed(kind uint64, js *jobState, ti int, ord int32) *dist.RNG {
	s.draw = dist.Keyed(s.drawSeed, uint64(js.job.ID), uint64(js.phaseIdx), uint64(ti), uint64(ord), kind)
	return &s.draw
}

// factor is the duration factor of task slot ti's copy number ord, from
// the phase-appropriate tail.
func (s *Simulator) factor(js *jobState, ti int, ord int32) float64 {
	d := s.inputDist
	if js.phaseIdx > 0 {
		d = s.interDist
	}
	return d.Sample(s.keyed(keyFactor, js, ti, ord))
}

// buildCtx assembles the policy context for the job's current phase.
func (s *Simulator) buildCtx(js *jobState) spec.Ctx {
	now := s.eng.Now()
	ctx := spec.Ctx{
		TotalTasks:        js.phase.n,
		TargetTasks:       js.phase.target,
		CompletedTasks:    js.phase.completed,
		WaveWidth:         s.fairShare(0),
		RunningCopies:     js.running,
		SpeculativeCopies: js.specRun,
		Utilization:       s.cl.Utilization(),
		Now:               now,
	}
	if s.oracle {
		ctx.EstimationAccuracy = 1
	} else {
		ctx.EstimationAccuracy = s.est.Accuracy()
	}
	if js.phaseIdx == 0 && js.job.Bound.Kind == task.DeadlineBound {
		ctx.Kind = task.DeadlineBound
		ctx.RemainingTime = js.inputDeadlineAbs - now
		if ctx.RemainingTime < 0 {
			ctx.RemainingTime = 0
		}
	} else {
		// Error-bound input phases and every intermediate phase: complete
		// `target` tasks as fast as possible.
		ctx.Kind = task.ErrorBound
	}
	return ctx
}

// onCopyComplete handles a copy finishing: the task completes, sibling
// copies are killed ("the earliest among the original and speculative
// copies is picked while the rest are killed"), and the job advances.
func (s *Simulator) onCopyComplete(js *jobState, ti int, c *copyRun) {
	s.noteUtil()
	now := s.eng.Now()
	s.endCopy(c)
	tb := &js.tasks
	if tb.completed[ti] {
		// Sibling kills cancel events, so this cannot happen; keep the
		// guard cheap rather than crash a long experiment.
		s.dispatch()
		return
	}
	tb.completed[ti] = true
	tb.span[ti] = now - tb.firstStart[ti]
	s.est.ObserveCompletion(c.duration / tb.work[ti])
	// Kill the losing copies; the winner, already ended, is the one left.
	js.res.Killed += s.removeCopies(js, ti, func(o *copyRun) bool { return o != c })
	tb.copies[ti], tb.best[ti] = tb.copies[ti][:0], nil
	s.freeCopy(c)
	s.dirtyTask(js, ti)
	js.phase.completed++
	s.repositionDemand(js)
	if js.phaseIdx == 0 {
		if po, ok := js.policy.(spec.ProgressObserver); ok {
			po.OnTaskComplete(js.phase.completed, now-js.job.Arrival)
		}
	}
	if js.phase.satisfied() {
		s.finishPhase(js)
	}
	s.dispatch()
}

// removeCopies is where killed copies leave: lost to a sibling, cut off by
// their phase closing, preempted or lost to a crash. It cancels, ends,
// unlinks and frees the copies of task ti that gone selects, in launch
// order, recomputes the task's best copy if that copy went, and dirties the
// task when any left. It returns how many left, which the caller counts as
// Killed, Preempted or Lost.
func (s *Simulator) removeCopies(js *jobState, ti int, gone func(*copyRun) bool) int {
	tb := &js.tasks
	kept := tb.copies[ti][:0]
	n, lostBest := 0, false
	for _, c := range tb.copies[ti] {
		if !gone(c) {
			kept = append(kept, c)
			continue
		}
		s.eng.Cancel(c.ev)
		s.endCopy(c)
		lostBest = lostBest || tb.best[ti] == c
		s.freeCopy(c)
		n++
	}
	tb.copies[ti] = kept
	if n > 0 {
		if lostBest {
			tb.recomputeBest(ti)
		}
		s.dirtyTask(js, ti)
	}
	return n
}

// endCopy is the one exit of every copy: the winner of a task completing
// leaves through it directly, and every killed copy through removeCopies.
// It releases the copy's slot, lowers its job's running (and speculative)
// counts and scores the copy's estimates against ground truth.
func (s *Simulator) endCopy(c *copyRun) {
	s.cl.Release(c.machineID)
	c.js.running--
	if c.speculative {
		c.js.specRun--
	}
	if s.oracle {
		return
	}
	if c.estTNew > 0 {
		s.est.RecordTNew(c.estTNew, c.duration)
	}
	s.scoreTRem(c, s.eng.Now())
}

// A copy reports progress every reportStep of its duration (§5: every 5%
// of its data), and its first tremReports reports from
// spec.MinSpecProgress on score a t_rem estimate.
const (
	reportStep  = 0.05
	tremReports = 4
)

// scoreTRem scores, for a copy ending at now, the t_rem estimate of each
// of its scored reports that it lived to send. At progress p the true
// remaining time is rem = duration × (1 − p), and the estimate is the
// view's spec.TRemEstimate(rem, bias, p); a non-positive rem scores
// nothing.
func (s *Simulator) scoreTRem(c *copyRun, now float64) {
	for k := 0; k < tremReports; k++ {
		p := spec.MinSpecProgress + float64(k)*reportStep
		if now-c.start < p*c.duration {
			return
		}
		if rem := c.duration * (1 - p); rem > 0 {
			s.est.RecordTRem(spec.TRemEstimate(rem, c.tremBias, p), rem)
		}
	}
}

// onInputDeadline freezes a deadline job's input phase: accuracy is locked
// to the completed fraction and remaining input copies are killed.
func (s *Simulator) onInputDeadline(js *jobState) {
	js.deadlineEv = nil
	if js.done || js.phaseIdx > 0 {
		return
	}
	s.finishPhase(js)
	s.dispatch()
}

// finishPhase closes the current phase, killing its running copies, and
// advances to the next phase or completes the job.
func (s *Simulator) finishPhase(js *jobState) {
	s.noteUtil()
	now := s.eng.Now()
	// The phase's candidate views die with it; the next phase's are built
	// lazily at its first launch attempt.
	js.jv.invalidate()
	// Kill every copy still running in this phase (unneeded work).
	all := func(*copyRun) bool { return true }
	for i := 0; i < js.phase.n; i++ {
		js.res.Killed += s.removeCopies(js, i, all)
	}
	if js.phaseIdx == 0 {
		js.inputEnd = now
		total := js.phase.n
		js.res.Accuracy = float64(js.phase.completed) / float64(total)
		js.res.InputDuration = now - js.job.Arrival
		js.res.StragglerRatio = s.stragglerRatio(js)
		if js.deadlineEv != nil {
			s.eng.Cancel(js.deadlineEv)
			js.deadlineEv = nil
		}
	}
	// Advance.
	if js.phaseIdx >= len(js.job.Phases) {
		s.finishJob(js)
		return
	}
	p := js.job.Phases[js.phaseIdx]
	js.phaseIdx++
	js.tasks.reset(p.NumTasks)
	for i := range js.tasks.work {
		js.tasks.work[i] = p.WorkScale
	}
	js.phaseBuf = phaseRun{n: p.NumTasks, target: p.NumTasks}
	js.phase = &js.phaseBuf
	s.repositionDemand(js)
}

// stragglerRatio returns max/median of work-normalized completed task spans
// of the job's current phase. It normalizes and sorts them in place in the
// task block's span array, which nothing reads after the phase closes.
func (s *Simulator) stragglerRatio(js *jobState) float64 {
	tb := &js.tasks
	spans := tb.span[:0]
	for i := 0; i < js.phase.n; i++ {
		if tb.completed[i] && tb.work[i] > 0 {
			spans = append(spans, tb.span[i]/tb.work[i])
		}
	}
	if len(spans) < 2 {
		return 1
	}
	sort.Float64s(spans)
	med := sortedMedian(spans)
	if med <= 0 {
		return 1
	}
	return spans[len(spans)-1] / med
}

// sortedMedian is dist.Median of an already sorted slice: the middle
// value, or the mean of the middle two.
func sortedMedian(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxInterObs caps the per-DAG-length intermediate-span observations that
// feed intermediateEstimate: the median of thousands of samples no longer
// moves, and without a cap a million-job DAG replay would grow the list
// forever.
const maxInterObs = 4096

// finishJob records the result and notifies learning policies.
func (s *Simulator) finishJob(js *jobState) {
	now := s.eng.Now()
	js.done = true
	js.phase = nil
	s.removeDemand(js)
	js.res.Duration = now - js.job.Arrival
	if dl := js.job.DAGLength(); dl > 1 && len(s.interObs[dl]) < maxInterObs {
		obs, span := s.interObs[dl], now-js.inputEnd
		s.interObs[dl] = slices.Insert(obs, sort.SearchFloat64s(obs, span), span)
	}
	if ob, ok := js.policy.(spec.Observer); ok {
		ctx := spec.Ctx{
			Kind:               js.job.Bound.Kind,
			TotalTasks:         js.job.NumTasks(),
			WaveWidth:          s.fairShare(0),
			Utilization:        s.cl.Utilization(),
			EstimationAccuracy: s.est.Accuracy(),
			Now:                now,
		}
		if s.oracle {
			ctx.EstimationAccuracy = 1
		}
		ob.OnJobEnd(ctx, js.res.Accuracy, js.res.InputDuration)
	}
	if s.onResult != nil {
		s.onResult(js.res)
	} else {
		s.results = append(s.results, js.res)
	}
	// Compact the active list.
	keep := s.active[:0]
	for _, a := range s.active {
		if !a.done {
			keep = append(keep, a)
		}
	}
	s.active = keep
	// Nothing reads js.job past this point: recycle it.
	s.releaseJob(js)
	// Nor the runtime state — recycle that too. Every copy is dead (freed
	// to the copy pool), the deadline event is cancelled, and js left the
	// active and demand indexes above.
	s.freeJobState(js)
}
