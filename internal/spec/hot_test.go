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
// or RAS for as long as it stays quiet, and every way its certificate can
// stop holding brings it back.

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
				vs.hotFor(rem - (m.now - now))
				wantQuiet("before the wake", vs, young, floored, capped)
				m.now = wake
				vs.Begin(m.now)
				vs.hotFor(rem - (m.now - now))
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
				vs.hotFor(rem)
				wantQuiet("median at the floor", vs, young, floored, capped)
				m.med = math.Nextafter(floor, 0)
				vs.SetMedian(m.med)
				vs.hotFor(rem)
				wantQuiet("median below the floor", vs, young, capped)
				pick(vs, m, p, rem)
			})
			t.Run("backwards clock", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				m.now = now - 0.1
				vs.Begin(m.now)
				vs.hotFor(rem)
				wantQuiet("clock back", vs)
				pick(vs, m, p, rem)
				wantQuiet("picked again", vs, young, floored, capped)
			})
			t.Run("larger remaining time", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				vs.hotFor(rem)
				wantQuiet("same remaining time", vs, young, floored, capped)
				vs.hotFor(math.Nextafter(rem, math.Inf(1)))
				wantQuiet("larger remaining time", vs)
				pick(vs, m, p, 2*rem)
				wantQuiet("picked again", vs, young, floored, capped)
				vs.hotFor(math.NaN())
				wantQuiet("NaN remaining time", vs)
			})
			t.Run("error-bound pick", func(t *testing.T) {
				vs, m := newCase()
				pick(vs, m, p, rem)
				p.PickIncremental(Ctx{Kind: task.ErrorBound, TargetTasks: 3, TotalTasks: 5}, vs)
				wantQuiet("after an error-bound pick", vs)
				checkQuiet(t, "error", vs, m, rem)
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

// hotStep evolves a hot-set test's model and set by one random event of
// the kinds the scheduler's refresh applies — a launch, a copy killed,
// every copy lost, a completion — or a clock or median move, which now and
// then goes backwards or to an untame median.
func hotStep(rng *rand.Rand, vs *ViewSet, m *model) {
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
		vs.Remove(i)
		return
	case op < 6 && !m.groundTruth:
		m.med *= []float64{0.5, 0.9, 0.99, 1.01, 1.2, 2}[rng.Intn(6)]
		if rng.Intn(20) == 0 {
			m.med = 1e-300
		}
		if !tame(m.med) && rng.Intn(2) == 0 {
			m.med = 1
		}
		vs.SetMedian(m.med)
		return
	default:
		m.now += rng.ExpFloat64() * []float64{0.05, 0.5, 2}[rng.Intn(3)]
		if rng.Intn(25) == 0 {
			m.now -= 1
		}
		vs.Begin(m.now)
		return
	}
	m.recs[i] = r
	vs.Update(i, r)
}

// FuzzHotSet drives random sets through random clocks (now and then
// backwards), medians (now and then untame), remaining times (mostly
// falling, now and then rising or no deadline at all: an error-bound
// pick), launches, kills and completions, with a GS or RAS deadline pick
// after each step. Every pick must match the reference Pick, and every
// quiet record must be no candidate of either pick under the reference
// views.
func FuzzHotSet(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 53} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 10; trial++ {
			c := randCertCase(rng, true)
			m := c.m
			m.groundTruth = rng.Intn(8) == 0
			if m.groundTruth {
				m.med = 1
			}
			vs := m.build(c.total)
			deadline := c.deadline + 4*rng.Float64()
			for step := 0; step < 40 && len(m.recs) > 0; step++ {
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
				views := m.views()
				for _, p := range []IncrementalPolicy{GS{}, RAS{}} {
					got, gotOK := p.PickIncremental(ctx, vs)
					want, wantOK := p.Pick(ctx, views)
					if gotOK != wantOK || (gotOK && got != want) {
						t.Fatalf("seed %d trial %d step %d %s ctx %+v: PickIncremental (%+v, %v), Pick (%+v, %v)",
							seed, trial, step, p.Name(), ctx, got, gotOK, want, wantOK)
					}
					if ctx.Kind == task.DeadlineBound {
						checkQuiet(t, fmt.Sprintf("seed %d trial %d step %d %s", seed, trial, step, p.Name()), vs, m, rem)
					}
				}
				hotStep(rng, vs, m)
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
