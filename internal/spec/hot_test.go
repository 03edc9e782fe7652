package spec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/approx-analytics/grass/internal/task"
)

// These tests hold the hot set (hot.go) to its contract: a record a
// deadline pick leaves out of its scan is no speculation candidate of GS
// or RAS for as long as it stays quiet, an error-bound pick's quiet member
// is in the earliest set and no candidate and its quiet non-member is
// outside the set, and every way a certificate can stop holding brings
// its record back.

// quietSet returns the set's quiet tasks, ascending.
func quietSet(vs *ViewSet) []int {
	q := vs.AppendQuiet(nil)
	sort.Ints(q)
	return q
}

// candidate reports whether view v is a speculation candidate of a GS or
// a RAS deadline pick with remaining time rem, by the reference picks'
// own tests.
func candidate(v TaskView, rem float64) bool {
	if !v.Running || !v.Speculable || v.Copies >= MaxCopies || v.TNew > rem {
		return false
	}
	return !(v.TNew >= v.TRem) || v.Saving() > 0
}

// checkQuiet fails when a quiet record of vs is a candidate under the
// reference views of the model's records at remaining time rem, or when
// the set's invariants broke.
func checkQuiet(t *testing.T, name string, vs *ViewSet, m *model, rem float64) {
	t.Helper()
	if err := vs.CheckOrder(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, i := range vs.AppendQuiet(nil) {
		r, ok := m.recs[i]
		if !ok {
			t.Fatalf("%s: quiet task %d is not incomplete", name, i)
		}
		if v := refView(r, i, m.now, m.med, m.groundTruth); candidate(v, rem) {
			t.Fatalf("%s: quiet task %d is a candidate at t=%v med=%v rem=%v: %+v", name, i, m.now, m.med, rem, v)
		}
	}
}

// checkEarliestQuiet fails when a quiet record of vs does not hold an
// error-bound certificate true under the reference views of the model's
// records at cut need — a quiet member must be in the reference earliest
// set and no candidate of GS or RAS at any deadline, a quiet non-member
// outside the set — or when the set's invariants broke.
func checkEarliestQuiet(t *testing.T, name string, vs *ViewSet, m *model, need int) {
	t.Helper()
	if err := vs.CheckOrder(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	run, _ := refEarliest(m.views(), need)
	for _, i := range vs.AppendQuiet(nil) {
		r, ok := m.recs[i]
		if !ok {
			t.Fatalf("%s: quiet task %d is not incomplete", name, i)
		}
		v := refView(r, i, m.now, m.med, m.groundTruth)
		member := slices.Contains(run, i)
		switch k := vs.Quiet(i); {
		case k == QuietMember && (!member || candidate(v, math.Inf(1))):
			t.Fatalf("%s: quiet member %d at t=%v med=%v need %d is a candidate or outside the set %v: %+v",
				name, i, m.now, m.med, need, run, v)
		case k == QuietOutside && member:
			t.Fatalf("%s: quiet non-member %d at t=%v med=%v need %d is in the set %v: %+v",
				name, i, m.now, m.med, need, run, v)
		case k != QuietMember && k != QuietOutside:
			t.Fatalf("%s: quiet task %d holds a %v certificate after an error-bound pick", name, i, k)
		}
	}
}

// TestHotSetReturns covers each way a quiet record returns to the hot set
// on a hand-built set: a young straggler certified until it turns
// speculable, a record whose t_new stays above its t_rem bound while the
// median does not fall below its floor, a record at the copy cap, and a
// candidate that stays hot.
func TestHotSetReturns(t *testing.T) {
	const now, med, rem = 100.0, 1.0, 50.0
	running := func(work, start, dur float64, copies int32) TaskRec {
		return TaskRec{Work: work, Factor: 1, Start: start, Duration: dur, End: start + dur, TRemBias: 1, FirstStart: start, Copies: copies}
	}
	const young, floored, capped, cand = 0, 1, 2, 3
	newCase := func() (*ViewSet, *model) {
		m := &model{now: now, med: med, recs: map[int]TaskRec{
			young:   running(1, now-0.4, 4, 1), // progress 0.1; t_rem 3.6 > t_new 1 once speculable
			floored: running(3, now-2, 4, 1),   // progress 0.5; t_rem bound 2 < t_new 3
			capped:  running(0.1, now-3, 4, MaxCopies),
			cand:    running(0.5, now-2, 4, 1), // t_new 0.5 < t_rem 2
			4:       {Work: 200, Factor: 1},    // unscheduled, beyond the deadline
		}}
		return m.build(5), m
	}
	pick := func(vs *ViewSet, m *model, p IncrementalPolicy, r float64) {
		t.Helper()
		ctx := Ctx{Kind: task.DeadlineBound, RemainingTime: r, TargetTasks: 5, TotalTasks: 5}
		got, gotOK := p.PickIncremental(ctx, vs)
		want, wantOK := p.Pick(ctx, m.views())
		if gotOK != wantOK || got != want {
			t.Fatalf("%s: PickIncremental (%+v, %v), Pick (%+v, %v)", p.Name(), got, gotOK, want, wantOK)
		}
		checkQuiet(t, p.Name(), vs, m, r)
	}
	wantQuiet := func(name string, vs *ViewSet, want ...int) {
		t.Helper()
		if got := quietSet(vs); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: quiet %v, want %v", name, got, want)
		}
	}
	for _, p := range []IncrementalPolicy{GS{}, RAS{}} {
		t.Run(p.Name(), func(t *testing.T) {
			vs, m := newCase()
			wake := vs.recs[young].specFrom()
			pick(vs, m, p, rem)
			wantQuiet("certified", vs, young, floored, capped)
			if h := vs.hot[vs.recs[young].near-1]; h.wake != wake || h.floor != 0 {
				t.Fatalf("young record certified until %v with floor %v, want the wake %v", h.wake, h.floor, wake)
			}
			floor := vs.hot[vs.recs[floored].near-1].floor
			if !(floor > 0 && floor < med) {
				t.Fatalf("floored record has floor %v", floor)
			}

			t.Run("re-filed", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				vs.Update(floored, m.recs[floored])
				wantQuiet("after Update", vs, young, capped)
				vs.Update(capped, m.recs[capped])
				wantQuiet("after Update", vs, young)
				checkQuiet(t, "re-filed", vs, m, rem)
			})
			t.Run("removed", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				vs.Remove(young)
				delete(m.recs, young)
				wantQuiet("after Remove", vs, floored, capped)
				checkQuiet(t, "removed", vs, m, rem)
			})
			t.Run("wake at exactly specFrom", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				m.now = math.Nextafter(wake, math.Inf(-1))
				vs.Begin(m.now)
				vs.hotFor(rem-(m.now-now), false)
				wantQuiet("before the wake", vs, young, floored, capped)
				m.now = wake
				vs.Begin(m.now)
				vs.hotFor(rem-(m.now-now), false)
				wantQuiet("at the wake", vs, floored, capped)
				if progress(wake, m.recs[young].Start, m.recs[young].Duration) < MinSpecProgress {
					t.Fatal("the young record is not speculable at its wake")
				}
				pick(vs, m, p, rem-(m.now-now))
				wantQuiet("picked at the wake", vs, floored, capped)
			})
			t.Run("median below the floor", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				m.med = floor
				vs.SetMedian(m.med)
				vs.hotFor(rem, false)
				wantQuiet("median at the floor", vs, young, floored, capped)
				m.med = math.Nextafter(floor, 0)
				vs.SetMedian(m.med)
				vs.hotFor(rem, false)
				wantQuiet("median below the floor", vs, young, capped)
				pick(vs, m, p, rem)
			})
			t.Run("backwards clock", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				m.now = now - 0.1
				vs.Begin(m.now)
				vs.hotFor(rem, false)
				wantQuiet("clock back", vs)
				pick(vs, m, p, rem)
				wantQuiet("picked again", vs, young, floored, capped)
			})
			t.Run("larger remaining time", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				vs.hotFor(rem, false)
				wantQuiet("same remaining time", vs, young, floored, capped)
				vs.hotFor(math.Nextafter(rem, math.Inf(1)), false)
				wantQuiet("larger remaining time", vs)
				pick(vs, m, p, 2*rem)
				wantQuiet("picked again", vs, young, floored, capped)
				vs.hotFor(math.NaN(), false)
				wantQuiet("NaN remaining time", vs)
			})
			t.Run("error-bound pick", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				vs.hotFor(math.Inf(1), true)
				wantQuiet("readied for an error-bound pick", vs)
				ctx := Ctx{Kind: task.ErrorBound, TargetTasks: 3, TotalTasks: 5}
				got, gotOK := p.PickIncremental(ctx, vs)
				if want, wantOK := p.Pick(ctx, m.views()); gotOK != wantOK || got != want {
					t.Fatalf("error-bound PickIncremental (%+v, %v), Pick (%+v, %v)", got, gotOK, want, wantOK)
				}
				if len(quietSet(vs)) == 0 {
					t.Fatal("the error-bound pick certified no record")
				}
				checkEarliestQuiet(t, "error", vs, m, 3)
				pick(vs, m, p, rem)
				for _, i := range quietSet(vs) {
					if k := vs.Quiet(i); k != QuietDeadline {
						t.Fatalf("task %d holds a %v certificate after a deadline pick", i, k)
					}
				}
			})
			t.Run("ground truth and untame medians", func(t *testing.T) {
				vs, m := newCase()
				m.groundTruth, m.med = true, 1
				vs = m.build(5)
				pick(vs, m, p, rem)
				wantQuiet("ground truth", vs)
				vs, m = newCase()
				for _, untame := range []float64{1e-300, 0x1p300} {
					m.med = untame
					vs.SetMedian(untame)
					pick(vs, m, p, 1e300)
					wantQuiet(fmt.Sprintf("median %v", untame), vs)
				}
			})
		})
	}
}

// TestEarliestQuiet covers each way an error-bound pick's quiet record
// returns on a hand-built set: three running members far inside the
// earliest set of four (t_rem 0.8, 1.6 and 1.2, t_new 10), a young copy
// far outside it (t_rem 39.9) and unscheduled tasks with t_new 2, 3 and
// 50 around its boundary, which the first pick leaves at the key 3.
func TestEarliestQuiet(t *testing.T) {
	const now, need = 100.0, 4
	running := func(work, start, dur float64) TaskRec {
		return TaskRec{Work: work, Factor: 1, Start: start, Duration: dur, End: start + dur, TRemBias: 1, FirstStart: start, Copies: 1}
	}
	const deep, edge, mid, out = 0, 1, 6, 4
	newCase := func() (*ViewSet, *model) {
		m := &model{now: now, med: 1, recs: map[int]TaskRec{
			deep: running(10, now-3.2, 4), // progress 0.8, t_rem 0.8
			edge: running(10, now-2.4, 4), // progress 0.6, t_rem 1.6
			mid:  running(10, now-2.8, 4), // progress 0.7, t_rem 1.2
			out:  running(20, now-0.1, 40),
			2:    {Work: 2, Factor: 1},
			3:    {Work: 3, Factor: 1},
			5:    {Work: 50, Factor: 1},
		}}
		return m.build(7), m
	}
	pick := func(name string, vs *ViewSet, m *model, p IncrementalPolicy, need int) {
		t.Helper()
		ctx := Ctx{Kind: task.ErrorBound, TargetTasks: need, TotalTasks: 7}
		got, gotOK := p.PickIncremental(ctx, vs)
		want, wantOK := p.Pick(ctx, m.views())
		if gotOK != wantOK || got != want {
			t.Fatalf("%s %s: PickIncremental (%+v, %v), Pick (%+v, %v)", name, p.Name(), got, gotOK, want, wantOK)
		}
		checkEarliestQuiet(t, name, vs, m, need)
	}
	wantKinds := func(name string, vs *ViewSet, want map[int]QuietKind) {
		t.Helper()
		for i, k := range want {
			if got := vs.Quiet(i); got != k {
				t.Fatalf("%s: task %d is %v, want %v", name, i, got, k)
			}
		}
	}
	entry := func(vs *ViewSet, i int) hotRec { return vs.hot[vs.recs[i].near-1] }
	theta := func(b float64) float64 { return b * (1 + quietMargin) }
	certified := map[int]QuietKind{deep: QuietMember, edge: QuietMember, mid: QuietMember, out: QuietOutside}
	for _, p := range []IncrementalPolicy{GS{}, RAS{}} {
		t.Run(p.Name(), func(t *testing.T) {
			vs, m := newCase()
			pick("first", vs, m, p, need)
			wantKinds("first", vs, certified)
			if th := entry(vs, out).bound; th != theta(3) {
				t.Fatalf("the young copy went quiet under θ %v, want 1.1 times the boundary key 3", th)
			}

			t.Run("boundary drop", func(t *testing.T) {
				// At t+0.3 the members' t_rem are 0.5, 1.3 and 0.9; at median
				// 0.4 the unscheduled t_new are 0.8, 1.2 and 20, so the
				// boundary falls to 1.2 (task 3) below two stored bounds.
				// Re-bounded from the new clock, one stays below it and the
				// other returns and is the new boundary.
				vs, m := newCase()
				pick("first", vs, m, p, need)
				m.now, m.med = now+0.3, 0.4
				vs.Begin(m.now)
				vs.SetMedian(m.med)
				before := entry(vs, mid).bound
				pick("dropped", vs, m, p, need)
				wantKinds("dropped", vs, map[int]QuietKind{deep: QuietMember, mid: QuietMember, edge: NotQuiet, out: QuietOutside})
				if after := entry(vs, mid).bound; !(before >= 1.2 && after < 1.2) {
					t.Fatalf("the kept member's bound went from %v to %v, want from at least to below 1.2", before, after)
				}
			})
			t.Run("boundary rises past θ", func(t *testing.T) {
				// At median 2 the boundary is task 3's t_new 6, above θ 3.3:
				// the young copy returns, is read, and goes quiet again
				// under the new boundary.
				vs, m := newCase()
				pick("first", vs, m, p, need)
				m.med = 2
				vs.SetMedian(m.med)
				s0, _ := vs.run.ErrorScan()
				pick("risen", vs, m, p, need)
				if s1, _ := vs.run.ErrorScan(); s1-s0 != 1 {
					t.Fatalf("the pass read %d records, want the returned one", s1-s0)
				}
				wantKinds("risen", vs, certified)
				if th := entry(vs, out).bound; th != theta(6) {
					t.Fatalf("the young copy went quiet again under θ %v, want 1.1 times 6", th)
				}
			})
			t.Run("wake", func(t *testing.T) {
				vs, m := newCase()
				pick("first", vs, m, p, need)
				wake := entry(vs, out).wake
				m.now = math.Nextafter(wake, math.Inf(-1))
				if v := refView(m.recs[out], out, m.now, m.med, false); !(v.TRem >= entry(vs, out).bound) {
					t.Fatalf("just before its wake the young copy's t_rem %v is below its θ %v", v.TRem, entry(vs, out).bound)
				}
				vs.Begin(m.now)
				vs.hotFor(math.Inf(1), true)
				wantKinds("before the wake", vs, certified)
				m.now = wake
				vs.Begin(m.now)
				vs.hotFor(math.Inf(1), true)
				wantKinds("at the wake", vs, map[int]QuietKind{out: NotQuiet, deep: QuietMember})
				pick("at the wake", vs, m, p, need)
			})
			t.Run("floor", func(t *testing.T) {
				vs, m := newCase()
				pick("first", vs, m, p, need)
				f := entry(vs, edge).floor
				if !(f > entry(vs, mid).floor && f < entry(vs, out).floor) {
					t.Fatalf("floors %v, %v and %v are not in the order the test needs", entry(vs, mid).floor, f, entry(vs, out).floor)
				}
				m.med = f
				vs.SetMedian(m.med)
				vs.hotFor(math.Inf(1), true)
				wantKinds("median at the member's floor", vs, map[int]QuietKind{edge: QuietMember, mid: QuietMember, out: NotQuiet})
				m.med = math.Nextafter(f, 0)
				vs.SetMedian(m.med)
				vs.hotFor(math.Inf(1), true)
				wantKinds("median below it", vs, map[int]QuietKind{edge: NotQuiet, mid: QuietMember})
				pick("below the floor", vs, m, p, need)
			})
			t.Run("re-filed and removed", func(t *testing.T) {
				vs, m := newCase()
				pick("first", vs, m, p, need)
				vs.Update(mid, m.recs[mid])
				vs.Update(out, m.recs[out])
				wantKinds("re-filed", vs, map[int]QuietKind{mid: NotQuiet, out: NotQuiet, deep: QuietMember, edge: QuietMember})
				checkEarliestQuiet(t, "re-filed", vs, m, need)
				vs.Remove(deep)
				delete(m.recs, deep)
				wantKinds("removed", vs, map[int]QuietKind{edge: QuietMember})
				if vs.qIn != 1 {
					t.Fatalf("%d quiet members counted, want 1", vs.qIn)
				}
				pick("re-filed and removed", vs, m, p, need-1)
			})
			t.Run("retry absorbs a re-filed quiet record", func(t *testing.T) {
				vs, m := newCase()
				pick("first", vs, m, p, need)
				for _, i := range []int{edge, out} {
					r := m.recs[i]
					r.Copies++ // a copy that finishes after the best one
					m.recs[i] = r
					vs.Update(i, r)
					passes := vs.run.Passes()
					pick(fmt.Sprintf("retry after task %d", i), vs, m, p, need)
					if vs.run.Passes() != passes {
						t.Fatalf("the retry after re-filing quiet task %d made a full pass", i)
					}
				}
			})
			t.Run("need crossing Len", func(t *testing.T) {
				vs, m := newCase()
				pick("first", vs, m, p, need)
				for _, n := range []int{7, 8, need, 1, 6, need} {
					pick(fmt.Sprintf("need %d", n), vs, m, p, n)
					if n >= 7 {
						wantKinds(fmt.Sprintf("need %d", n), vs, map[int]QuietKind{out: QuietMember, deep: QuietMember})
					}
				}
				wantKinds("need back at 4", vs, certified)
			})
		})
	}
}

// hotStep evolves a hot-set test's model and sets by one random event of
// the kinds the scheduler's refresh applies — a launch, a copy killed,
// every copy lost, a completion — or a clock or median move, which now and
// then goes backwards or to an untame median. It reports whether a task
// completed.
func hotStep(rng *rand.Rand, m *model, sets ...*ViewSet) bool {
	idx := make([]int, 0, len(m.recs))
	for i := range m.recs {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	i := idx[rng.Intn(len(idx))]
	r := m.recs[i]
	switch op := rng.Intn(10); {
	case op < 2:
		r = launchRec(rng, r, m.now, m.groundTruth)
	case op < 3 && r.Copies > 1:
		r.Copies--
	case op < 4 && r.Copies > 0:
		r = TaskRec{Work: r.Work, Factor: r.Factor}
	case op < 5:
		delete(m.recs, i)
		for _, vs := range sets {
			vs.Remove(i)
		}
		return true
	case op < 6 && !m.groundTruth:
		m.med *= []float64{0.5, 0.9, 0.99, 1.01, 1.2, 2}[rng.Intn(6)]
		if rng.Intn(20) == 0 {
			m.med = 1e-300
		}
		if !tame(m.med) && rng.Intn(2) == 0 {
			m.med = 1
		}
		for _, vs := range sets {
			vs.SetMedian(m.med)
		}
		return false
	default:
		m.now += rng.ExpFloat64() * []float64{0.05, 0.5, 2}[rng.Intn(3)]
		if rng.Intn(25) == 0 {
			m.now -= 1
		}
		for _, vs := range sets {
			vs.Begin(m.now)
		}
		return false
	}
	m.recs[i] = r
	for _, vs := range sets {
		vs.Update(i, r)
	}
	return false
}

// FuzzHotSet drives random sets through random clocks (now and then
// backwards), medians (now and then untame), remaining times (mostly
// falling, now and then rising or no deadline at all: an error-bound
// pick), launches, kills and completions, with a GS and a RAS deadline
// pick after each step on one set and a GS and a RAS error-bound pick on
// a second set that follows the same events. The error bound's need is 0,
// 1, Len−1, Len, Len+1 or between, falls by one with each completion as a
// phase's does and now and then is drawn afresh. Every pick must match the
// reference Pick; every quiet record of the first set must be no candidate
// of either deadline pick under the reference views, and every quiet
// record of the second set must hold its class: a quiet member in the
// reference earliest set and no candidate, a quiet non-member outside it.
func FuzzHotSet(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 53} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		drawNeed := func(n int) int {
			return []int{0, 1, n - 1, n, n + 1, rng.Intn(n + 1), rng.Intn(n + 1)}[rng.Intn(7)]
		}
		for trial := 0; trial < 10; trial++ {
			c := randCertCase(rng, true)
			m := c.m
			m.groundTruth = rng.Intn(8) == 0
			if m.groundTruth {
				m.med = 1
			}
			vs, es := m.build(c.total), m.build(c.total)
			deadline := c.deadline + 4*rng.Float64()
			need := drawNeed(len(m.recs))
			for step := 0; step < 40 && len(m.recs) > 0; step++ {
				name := fmt.Sprintf("seed %d trial %d step %d", seed, trial, step)
				rem := max(deadline-m.now, 0)
				switch rng.Intn(20) {
				case 0:
					rem *= 2
				case 1:
					rem = math.Inf(1)
				}
				ctx := Ctx{Kind: task.DeadlineBound, RemainingTime: rem, TargetTasks: c.total, TotalTasks: c.total}
				if rng.Intn(15) == 0 {
					ctx = Ctx{Kind: task.ErrorBound, TargetTasks: c.total, CompletedTasks: c.total - len(m.recs), TotalTasks: c.total}
				}
				if rng.Intn(5) == 0 {
					need = drawNeed(len(m.recs))
				}
				ectx := Ctx{Kind: task.ErrorBound, TargetTasks: need, TotalTasks: c.total}
				views := m.views()
				for _, p := range []IncrementalPolicy{GS{}, RAS{}} {
					for _, pk := range []struct {
						vs  *ViewSet
						ctx Ctx
					}{{vs, ctx}, {es, ectx}} {
						got, gotOK := p.PickIncremental(pk.ctx, pk.vs)
						want, wantOK := p.Pick(pk.ctx, views)
						if gotOK != wantOK || (gotOK && got != want) {
							t.Fatalf("%s %s ctx %+v: PickIncremental (%+v, %v), Pick (%+v, %v)",
								name, p.Name(), pk.ctx, got, gotOK, want, wantOK)
						}
					}
					if ctx.Kind == task.DeadlineBound {
						checkQuiet(t, name+" "+p.Name(), vs, m, rem)
					}
					checkEarliestQuiet(t, name+" "+p.Name(), es, m, need)
				}
				if hotStep(rng, m, vs, es) {
					need--
				}
			}
		}
	})
}

// TestHotSetScans checks that quiet records leave the scan: on sets where
// most running copies are young or beyond the deadline, later deadline
// passes read fewer records than run, and a pass at a new clock reads no
// quiet record.
func TestHotSetScans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scanned, running uint64
	for iter := 0; iter < 200; iter++ {
		c := randCertCase(rng, true)
		vs := c.m.build(c.total)
		for step := 0; step < 5; step++ {
			rem := max(c.deadline-c.m.now, 0)
			s0, r0 := vs.run.DeadlineScan()
			GS{}.PickIncremental(Ctx{Kind: task.DeadlineBound, RemainingTime: rem, TargetTasks: c.total, TotalTasks: c.total}, vs)
			s1, r1 := vs.run.DeadlineScan()
			if step > 0 {
				scanned, running = scanned+s1-s0, running+r1-r0
			}
			if s1-s0 > r1-r0 {
				t.Fatalf("a pass read %d records of %d running", s1-s0, r1-r0)
			}
			c.m.now += 0.01
			vs.Begin(c.m.now)
		}
	}
	t.Logf("later passes read %d of %d running records", scanned, running)
	if running == 0 || scanned*2 > running {
		t.Fatalf("later passes read %d of %d running records; want at most half", scanned, running)
	}
}
