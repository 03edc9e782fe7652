package spec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/approx-analytics/grass/internal/task"
)

// These tests hold decline certificates to their contract: after a GS or
// RAS pick declines and certifies, every pick the certificate covers — a
// later clock before Wake, a median at or above Floor, some running tasks
// completed and the error bound's need lowered by as many, RemainingTime
// counted down from the same deadline instant — must decline too, both
// PickIncremental on the set the scheduler would refresh (Begin, SetMedian,
// Remove) and the reference Pick on the rebuilt views.

// certCase is a set a certificate is issued on: its records (at m.now and
// m.med), its dense task count, the pick's context and the deadline instant
// a deadline context's RemainingTime counts down to.
type certCase struct {
	m        *model
	total    int
	ctx      Ctx
	deadline float64
}

// later is a state a certificate may cover: the clock, the median and the
// running tasks completed since the certificate, in order.
type later struct {
	now, med float64
	done     []int
}

// issue builds c's set and runs p's pick on it. When the pick declines it
// returns the certificate p issues, if any, and the set to evolve.
func (c *certCase) issue(t *testing.T, p IncrementalPolicy) (*ViewSet, DeclineCert, bool) {
	t.Helper()
	vs := c.m.build(c.total)
	if _, ok := p.PickIncremental(c.ctx, vs); ok {
		return vs, DeclineCert{}, false
	}
	cert, ok := p.(DeclineCertifier).CertifyDecline(c.ctx, vs)
	if ok && !cert.Holds(c.m.now, c.m.med) {
		t.Fatalf("%s issued %+v, which does not hold at its own clock %v and median %v", p.Name(), cert, c.m.now, c.m.med)
	}
	return vs, cert, ok
}

// at returns the set, views and context of c's state after the later
// states states[:k+1], evolving vs as the scheduler's deferred refresh
// does. It reports false once need reaches zero: the phase is over.
func (c *certCase) at(vs *ViewSet, states []later, k int) ([]TaskView, Ctx, bool) {
	m := &model{recs: map[int]TaskRec{}, groundTruth: c.m.groundTruth}
	for i, r := range c.m.recs {
		m.recs[i] = r
	}
	ctx := c.ctx
	for _, s := range states[:k+1] {
		for _, i := range s.done {
			delete(m.recs, i)
		}
		ctx.CompletedTasks += len(s.done)
	}
	s := states[k]
	m.now, m.med = s.now, s.med
	vs.Begin(s.now)
	vs.SetMedian(s.med)
	for _, i := range s.done {
		vs.Remove(i)
	}
	if ctx.Kind == task.DeadlineBound {
		ctx.RemainingTime = max(c.deadline-s.now, 0)
	} else if ctx.Remaining() == 0 {
		return nil, ctx, false
	}
	return m.views(), ctx, true
}

// checkCovered evolves the certified set vs through states, each of which
// cert must cover, and fails when a pick there launches.
func (c *certCase) checkCovered(t *testing.T, name string, p IncrementalPolicy, vs *ViewSet, cert DeclineCert, states []later) {
	t.Helper()
	for k, s := range states {
		if !cert.Holds(s.now, s.med) {
			t.Fatalf("%s %s: state %d (t=%v med=%v) is not covered by %+v", name, p.Name(), k, s.now, s.med, cert)
		}
		views, ctx, live := c.at(vs, states, k)
		if !live {
			return
		}
		if d, ok := p.PickIncremental(ctx, vs); ok {
			t.Fatalf("%s %s: certificate %+v issued at t=%v med=%v, yet at t=%v med=%v after completing %v the pick launches %+v\nctx %+v\nviews %+v",
				name, p.Name(), cert, c.m.now, c.m.med, s.now, s.med, s.done, d, ctx, views)
		}
		if d, ok := p.Pick(ctx, views); ok {
			t.Fatalf("%s %s: certificate %+v covers t=%v med=%v, where the reference pick launches %+v\nviews %+v",
				name, p.Name(), cert, s.now, s.med, d, views)
		}
	}
}

// certRec draws a record for the certificate fuzz: tame work and factor,
// and for a running task a consistent best copy (End = Start + Duration)
// whose progress spans young, speculable and finished copies, a t_rem bias
// below 0.5 (whose t_rem peaks later) one time in four, copy counts up to
// the cap and, one time in ten, a zero duration.
func certRec(rng *rand.Rand, now float64, running bool) TaskRec {
	r := TaskRec{Work: 0.5 + 2*rng.Float64(), Factor: 0.2 + 1.5*rng.Float64()}
	if !running {
		return r
	}
	r.Copies = int32(1 + rng.Intn(MaxCopies))
	if rng.Intn(3) > 0 {
		r.Copies = 1
	}
	if rng.Intn(10) > 0 {
		r.Duration = 0.2 + 6*rng.ExpFloat64()
	}
	r.Start = now - r.Duration*1.2*rng.Float64()
	if rng.Intn(6) == 0 {
		r.Start = now
	}
	r.End = r.Start + r.Duration
	switch rng.Intn(4) {
	case 0:
		r.TRemBias = 0.05 + 0.45*rng.Float64()
	case 1:
		r.TRemBias = 1
	default:
		r.TRemBias = 0.5 + 1.5*rng.Float64()
	}
	r.FirstStart = r.Start - rng.Float64()
	return r
}

// randCertCase draws a set of up to 40 incomplete tasks (a few completed
// gaps in the dense indices) and an error-bound context needing 1 to all of
// them, or a deadline context whose deadline lies up to a few t_new ahead.
func randCertCase(rng *rand.Rand, deadline bool) *certCase {
	n := 1 + rng.Intn(40)
	total := n + rng.Intn(4)
	now := float64(rng.Intn(1000)) + rng.Float64()
	m := &model{recs: map[int]TaskRec{}, now: now, med: 0.5 + 1.5*rng.Float64()}
	runShare := rng.Float64()
	for _, i := range rng.Perm(total)[:n] {
		m.recs[i] = certRec(rng, now, rng.Float64() < runShare)
	}
	c := &certCase{m: m, total: total}
	if deadline {
		c.deadline = now + 4*rng.Float64()*rng.Float64()
		c.ctx = Ctx{Kind: task.DeadlineBound, RemainingTime: max(c.deadline-now, 0), TargetTasks: total, TotalTasks: total}
	} else {
		completed := total - n
		c.ctx = Ctx{Kind: task.ErrorBound, TargetTasks: completed + 1 + rng.Intn(n), CompletedTasks: completed, TotalTasks: total}
	}
	return c
}

// randLater draws a sequence of states cert covers after the set's clock
// now and median med: clocks rising towards the wake (or a horizon), the
// last float before the wake among them, medians at or above the floor —
// the floor itself among them — and now and then a running task
// completing.
func randLater(rng *rand.Rand, c *certCase, cert DeclineCert) []later {
	end := cert.Wake
	if math.IsInf(end, 1) {
		end = c.m.now + 20
	}
	running := make([]int, 0, len(c.m.recs))
	for i, r := range c.m.recs {
		if r.Copies > 0 {
			running = append(running, i)
		}
	}
	sort.Ints(running)
	rng.Shuffle(len(running), func(a, b int) { running[a], running[b] = running[b], running[a] })
	var states []later
	now := c.m.now
	for k := 0; k < 8; k++ {
		prev := now
		now += (end - now) * rng.Float64() * rng.Float64()
		if k == 7 && !math.IsInf(cert.Wake, 1) {
			now = math.Nextafter(cert.Wake, math.Inf(-1))
		}
		if !(now < cert.Wake) || now < prev {
			now = prev
		}
		med := max(cert.Floor, minTame) * (1 + rng.Float64())
		switch rng.Intn(4) {
		case 0:
			med = max(cert.Floor, minTame)
		case 1:
			med = max(cert.Floor, c.m.med*(0.5+rng.Float64()))
		}
		s := later{now: now, med: med}
		for len(running) > 0 && rng.Intn(3) == 0 {
			s.done = append(s.done, running[0])
			running = running[1:]
		}
		states = append(states, s)
	}
	return states
}

// FuzzDeclineCertificate draws random sets and contexts, both bound kinds,
// and after every GS, RAS or NoSpec pick that declines and certifies checks
// random later states the certificate covers: every pick there must
// decline too.
func FuzzDeclineCertificate(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 53} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			deadline := rng.Intn(2) == 0
			c := randCertCase(rng, deadline)
			for _, p := range []IncrementalPolicy{GS{}, RAS{}, NoSpec{}} {
				vs, cert, ok := c.issue(t, p)
				if ok {
					c.checkCovered(t, "fuzz", p, vs, cert, randLater(rng, c, cert))
				}
			}
		}
	})
}

// TestDeclineCertificate covers the certificate's edges on hand-built sets.
func TestDeclineCertificate(t *testing.T) {
	const now, med = 100.0, 1.0
	// running is a speculable or young running record whose copy started
	// at start, ran for dur and has t_rem bias b.
	running := func(work, start, dur, b float64, copies int32) TaskRec {
		return TaskRec{Work: work, Factor: 1, Start: start, Duration: dur, End: start + dur, TRemBias: b, FirstStart: start, Copies: copies}
	}
	errCase := func(need int, recs map[int]TaskRec) *certCase {
		n := len(recs)
		return &certCase{
			m:     &model{recs: recs, now: now, med: med},
			total: n,
			ctx:   Ctx{Kind: task.ErrorBound, TargetTasks: need, TotalTasks: n},
		}
	}
	deadlineCase := func(rem float64, recs map[int]TaskRec) *certCase {
		n := len(recs)
		return &certCase{
			m:        &model{recs: recs, now: now, med: med},
			total:    n,
			ctx:      Ctx{Kind: task.DeadlineBound, RemainingTime: rem, TargetTasks: n, TotalTasks: n},
			deadline: now + rem,
		}
	}
	launchesAt := func(c *certCase, p IncrementalPolicy, at, m float64) bool {
		vs := c.m.build(c.total)
		vs.Begin(at)
		vs.SetMedian(m)
		ctx := c.ctx
		if ctx.Kind == task.DeadlineBound {
			ctx.RemainingTime = max(c.deadline-at, 0)
		}
		_, ok := p.PickIncremental(ctx, vs)
		return ok
	}
	policies := []IncrementalPolicy{GS{}, RAS{}}

	t.Run("bias below 0.5 peaks after the certificate", func(t *testing.T) {
		// Progress 0.2 of a 10-unit copy with bias 0.2: t_rem = 8 × (1 −
		// 0.8 × 0.8) = 2.88 now, rising to a peak of 10/(4 × 0.8) = 3.125
		// when 6.25 units remain. With t_new = 3 (and nothing else to
		// launch) the pick declines now but speculates at the peak, so no
		// certificate may rely on today's t_rem.
		for _, p := range policies {
			c := deadlineCase(50, map[int]TaskRec{0: running(3, now-2, 10, 0.2, 1)})
			if p.Name() == "RAS" {
				// RAS needs a positive saving: with one copy, t_rem > 2 t_new.
				c.m.recs[0] = TaskRec{Work: 1.5, Factor: 1, Start: now - 2, Duration: 10, End: now + 8, TRemBias: 0.2, FirstStart: now - 2, Copies: 1}
			}
			if _, cert, ok := c.issue(t, p); ok {
				t.Fatalf("%s certified %+v although t_rem peaks above t_new", p.Name(), cert)
			}
			if !launchesAt(c, p, now+1.75, med) {
				t.Fatalf("%s: the pick at the t_rem peak declines; the case does not exercise the peak", p.Name())
			}
		}
	})

	t.Run("copy crosses MinSpecProgress at the wake", func(t *testing.T) {
		// A young straggler (progress 0.1, bias 1.5) that a fresh copy
		// would beat once it may be speculated: the certificate must wake
		// exactly when it turns speculable.
		for _, p := range policies {
			for _, c := range []*certCase{
				errCase(1, map[int]TaskRec{0: running(0.5, now-1, 10, 1.5, 1)}),
				deadlineCase(50, map[int]TaskRec{0: running(0.5, now-1, 10, 1.5, 1)}),
			} {
				vs, cert, ok := c.issue(t, p)
				if !ok {
					t.Fatalf("%s %v: no certificate for a young copy", p.Name(), c.ctx.Kind)
				}
				if launchesAt(c, p, math.Nextafter(cert.Wake, math.Inf(-1)), med) {
					t.Fatalf("%s %v: the pick launches before the wake %v", p.Name(), c.ctx.Kind, cert.Wake)
				}
				if !launchesAt(c, p, cert.Wake, med) {
					t.Fatalf("%s %v: the pick still declines at the wake %v: the wake is late or the case is wrong", p.Name(), c.ctx.Kind, cert.Wake)
				}
				c.checkCovered(t, "wake", p, vs, cert, []later{{now: math.Nextafter(cert.Wake, math.Inf(-1)), med: med}})
			}
		}
	})

	t.Run("copy cap and zero duration never speculate", func(t *testing.T) {
		// Stragglers a fresh copy would beat, but one is at MaxCopies and
		// the other's copy reports no progress: the picks decline for good.
		recs := map[int]TaskRec{
			0: running(0.1, now-5, 10, 2, MaxCopies),
			1: {Work: 0.1, Factor: 1, Start: now, End: now + 50, TRemBias: 2, FirstStart: now, Copies: 1},
		}
		for _, p := range policies {
			for _, c := range []*certCase{errCase(2, recs), deadlineCase(50, recs)} {
				vs, cert, ok := c.issue(t, p)
				if !ok || !math.IsInf(cert.Wake, 1) || cert.Floor != 0 {
					t.Fatalf("%s %v: certificate %+v, %v; want one with no wake and no floor", p.Name(), c.ctx.Kind, cert, ok)
				}
				c.checkCovered(t, "cap", p, vs, cert, []later{{now: now + 30, med: 1e-6}, {now: now + 1e6, med: 1e6}})
			}
		}
	})

	t.Run("median just above and just below the floor", func(t *testing.T) {
		// One unscheduled task and a deadline: t_new = 2 median, so the
		// head stays pruned while 2 median > RemainingTime = 1.5; the floor
		// is 0.75 up to the margin.
		for _, p := range policies {
			c := deadlineCase(1.5, map[int]TaskRec{0: {Work: 2, Factor: 1}})
			vs, cert, ok := c.issue(t, p)
			if !ok {
				t.Fatalf("%s: no certificate for a pruned head", p.Name())
			}
			if f := cert.Floor; f < 0.75 || f > 0.75*(1+3*certEps) {
				t.Fatalf("%s: floor %v, want 0.75 plus the margin", p.Name(), f)
			}
			if cert.Holds(now, math.Nextafter(cert.Floor, 0)) {
				t.Fatalf("%s: %+v holds below its floor", p.Name(), cert)
			}
			c.checkCovered(t, "floor", p, vs, cert, []later{{now: now, med: cert.Floor}, {now: now + 1, med: math.Nextafter(cert.Floor, 2)}})
			if !launchesAt(c, p, now, 0.75*(1-certEps)) {
				t.Fatalf("%s: the head still stays pruned below the floor; the floor is not tight", p.Name())
			}
		}
	})

	t.Run("error-bound ties at the need boundary", func(t *testing.T) {
		// Two finished-looking running tasks whose keys (their t_rem, 1)
		// block an unscheduled task whose t_new ties them exactly: the
		// earliest set of 2 holds the blockers by index order today, but no
		// margin is left, so no certificate. With t_new = 2 the blockers
		// hold the unscheduled task out down to half the median. With need
		// 3 the unscheduled task is always in the set.
		blockers := func(unschedWork float64) map[int]TaskRec {
			return map[int]TaskRec{
				0: running(5, now-9, 10, 1, 1),
				1: running(5, now-9, 10, 1, 1),
				2: {Work: unschedWork, Factor: 1},
			}
		}
		for _, p := range policies {
			if _, cert, ok := errCase(2, blockers(1)).issue(t, p); ok {
				t.Fatalf("%s certified %+v with a launcher tied with the blockers", p.Name(), cert)
			}
			c := errCase(2, blockers(2))
			vs, cert, ok := c.issue(t, p)
			if !ok || cert.Floor < 0.5 || cert.Floor > 0.5*(1+3*certEps) {
				t.Fatalf("%s: certificate %+v, %v; want a floor of 0.5 plus the margin", p.Name(), cert, ok)
			}
			c.checkCovered(t, "ties", p, vs, cert, []later{{now: now + 0.5, med: cert.Floor}, {now: now + 0.9, med: 3, done: []int{0}}})
			if !launchesAt(c, p, now, 0.5*(1-certEps)) {
				t.Fatalf("%s: the unscheduled task stays out below the floor; the case does not exercise the boundary", p.Name())
			}
			if _, cert, ok := errCase(3, blockers(2)).issue(t, p); ok {
				t.Fatalf("%s certified %+v although need covers the unscheduled task", p.Name(), cert)
			}
		}
	})

	t.Run("deadline head just above RemainingTime", func(t *testing.T) {
		// The head's t_new exceeds RemainingTime by less than the margin:
		// no certificate. By twice the margin: certified, and it keeps
		// declining as the deadline nears.
		for _, p := range policies {
			if _, cert, ok := deadlineCase(1, map[int]TaskRec{0: {Work: 1 + certEps/2, Factor: 1}}).issue(t, p); ok {
				t.Fatalf("%s certified %+v inside the margin", p.Name(), cert)
			}
			c := deadlineCase(1, map[int]TaskRec{0: {Work: 1 + 4*certEps, Factor: 1}})
			vs, cert, ok := c.issue(t, p)
			if !ok {
				t.Fatalf("%s: no certificate outside the margin", p.Name())
			}
			c.checkCovered(t, "head", p, vs, cert, []later{{now: now + 0.5, med: med}, {now: now + 2, med: cert.Floor}})
		}
	})

	t.Run("random sets engage", func(t *testing.T) {
		// The fuzz body over a fixed stream of sets: GS and RAS must each
		// certify declines under both bound kinds, with wake times and
		// floors, so the covered-state checks are not vacuous.
		rng := rand.New(rand.NewSource(31))
		certified := map[string]int{}
		var wakes, floors int
		for trial := 0; trial < 3000; trial++ {
			deadline := trial%2 == 0
			c := randCertCase(rng, deadline)
			for _, p := range []IncrementalPolicy{GS{}, RAS{}} {
				vs, cert, ok := c.issue(t, p)
				if !ok {
					continue
				}
				certified[p.Name()+"/"+c.ctx.Kind.String()]++
				if !math.IsInf(cert.Wake, 1) {
					wakes++
				}
				if cert.Floor > 0 {
					floors++
				}
				c.checkCovered(t, "coverage", p, vs, cert, randLater(rng, c, cert))
			}
		}
		t.Logf("certified %v; %d with a wake time, %d with a floor", certified, wakes, floors)
		for _, k := range []string{"GS/deadline", "GS/error", "RAS/deadline", "RAS/error"} {
			if certified[k] < 50 {
				t.Fatalf("%s certified only %d declines: %v", k, certified[k], certified)
			}
		}
		if wakes < 50 || floors < 50 {
			t.Fatalf("only %d certificates with a wake time and %d with a floor", wakes, floors)
		}
	})

	t.Run("ground truth and NoSpec", func(t *testing.T) {
		recs := map[int]TaskRec{0: running(5, now-9, 10, 1, 1)}
		c := errCase(1, recs)
		c.m.groundTruth = true
		if _, cert, ok := c.issue(t, GS{}); ok {
			t.Fatalf("a ground-truth set was certified: %+v", cert)
		}
		c = errCase(1, recs)
		vs, cert, ok := c.issue(t, NoSpec{})
		if !ok || !math.IsInf(cert.Wake, 1) || cert.Floor != 0 {
			t.Fatalf("NoSpec with nothing unscheduled: certificate %+v, %v", cert, ok)
		}
		c.checkCovered(t, "nospec", NoSpec{}, vs, cert, []later{{now: now + 100, med: 1e-3}})
		if _, _, ok := errCase(1, map[int]TaskRec{0: {Work: 1, Factor: 1}}).issue(t, NoSpec{}); ok {
			t.Fatal("NoSpec certified a set it launches from")
		}
	})
}
