package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
)

// fullSwitchDeadline is the deadline switch written as the complete search:
// every one of the splits+1 splits evaluated with continueFrom, the first
// best kept, switching when it is split 0. It counts its decisions in st as
// switchDeadline counts them in the factory's stats.
func fullSwitchDeadline(g *policy, ctx spec.Ctx, c candidates, st *Stats) bool {
	rem := ctx.RemainingTime
	if rem <= 0 {
		return true
	}
	l, waves, acc := g.f.learner, g.waves(ctx), ctx.EstimationAccuracy
	rasC, ok1 := l.Aggregate(sampleRAS, g.bin, waves, acc)
	gsC, ok2 := l.Aggregate(sampleGS, g.bin, waves, acc)
	if !ok1 || !ok2 {
		st.StaticDecisions++
		return staticRule(ctx, c)
	}
	st.LearnedDecisions++
	phi := 0.0
	if ctx.TotalTasks > 0 {
		phi = float64(ctx.CompletedTasks) / float64(ctx.TotalTasks)
	}
	bestIdx, bestAcc := -1, -1.0
	for i := 0; i <= splits; i++ {
		s := rem * float64(i) / float64(splits)
		mid := phi + continueFrom(rasC, phi, s)
		a := mid + continueFrom(gsC, mid, rem-s)
		if a > bestAcc {
			bestIdx, bestAcc = i, a
		}
	}
	return bestIdx == 0
}

// randCurve draws a sample job's completion curve: a few completions at
// random times, reaching a random final fraction.
func randCurve(rng *rand.Rand) *Curve {
	var c Curve
	t, f := 0.0, 0.0
	for k := 1 + rng.Intn(8); k > 0; k-- {
		t += rng.ExpFloat64() * []float64{0.5, 3, 20}[rng.Intn(3)]
		f = min(1, f+rng.Float64()*0.4)
		c.Add(t, f)
	}
	return &c
}

// TestSwitchDeadlineMatchesFullSearch holds the deadline switch — the
// search that stops at the first split beating split 0, and the memo a
// same-instant retry reads — to the full search of every split, under both
// learner stores. Each step asks again with the same context, or with one
// input changed (the remaining time, the slot share, the accuracy, the
// completed or total tasks), or after the learner changed (a recorded
// sample, a seeded base): decisions and the factory's learned and static
// decision counts must equal the full search's. Retries served by the memo,
// searches stopped early and both decisions must each occur.
func TestSwitchDeadlineMatchesFullSearch(t *testing.T) {
	for _, kind := range []LearnerKind{LearnerRing, LearnerSketch} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + kind)))
			hits, early, decided := 0, 0, map[bool]int{}
			for trial := 0; trial < 200; trial++ {
				f, err := New(Config{Xi: 0.15, Factors: AllFactors(), Seed: 1, Learner: kind})
				if err != nil {
					t.Fatal(err)
				}
				numTasks := []int{20, 120, 900}[rng.Intn(3)]
				g := f.NewPolicy(0, numTasks).(*policy)
				g.sampled = false
				record := func() {
					p := []samplePolicy{sampleGS, sampleRAS}[rng.Intn(2)]
					f.learner.Record(p, g.bin, 1+rng.Float64()*8, 0.5+rng.Float64()*0.5, randCurve(rng))
				}
				for k := rng.Intn(6); k > 0; k-- {
					record()
				}
				views := taskViews{{Index: 0, TNew: 1 + rng.Float64()*4}, {Index: 1, TNew: 2}}
				ctx := spec.Ctx{
					Kind:               task.DeadlineBound,
					RemainingTime:      rng.Float64() * 40,
					TotalTasks:         numTasks,
					CompletedTasks:     rng.Intn(numTasks),
					WaveWidth:          1 + rng.Intn(50),
					EstimationAccuracy: 0.5 + rng.Float64()*0.5,
				}
				var want Stats
				for step := 0; step < 30; step++ {
					switch rng.Intn(12) {
					case 0:
						ctx.RemainingTime = max(0, ctx.RemainingTime-rng.Float64()*5)
					case 1:
						ctx.WaveWidth = 1 + rng.Intn(50)
					case 2:
						ctx.EstimationAccuracy = 0.5 + rng.Float64()*0.5
					case 3:
						ctx.CompletedTasks = rng.Intn(numTasks)
					case 4:
						ctx.TotalTasks = numTasks + rng.Intn(3)
					case 5:
						record()
					case 6:
						if sl, ok := f.learner.(*SketchLearner); ok {
							base := NewSketchLearner(AllFactors())
							base.Record(sampleGS, g.bin, 3, 0.75, randCurve(rng))
							sl.SetBase(base)
						}
					}
					before := f.stats
					fit := g.sw.curvesFit(wavesBucket(g.waves(ctx)), accBucket(ctx.EstimationAccuracy), f.learner.version()) && g.sw.fits(ctx)
					wantNow := fullSwitchDeadline(g, ctx, views, &want)
					got := g.switchDeadline(ctx, views)
					name := fmt.Sprintf("trial %d step %d ctx %+v", trial, step, ctx)
					if got != wantNow {
						t.Fatalf("%s: switchDeadline %v, full search %v", name, got, wantNow)
					}
					// The full search counted into want, switchDeadline into
					// the factory's stats: both counts must have moved alike.
					if f.stats.LearnedDecisions-before.LearnedDecisions != want.LearnedDecisions-before.LearnedDecisions ||
						f.stats.StaticDecisions-before.StaticDecisions != want.StaticDecisions-before.StaticDecisions {
						t.Fatalf("%s: stats moved from %+v to %+v, the full search counts %+v", name, before, f.stats, want)
					}
					want = f.stats
					if fit {
						hits++
					}
					if got == false && f.stats.LearnedDecisions > before.LearnedDecisions && !fit {
						early++
					}
					decided[got]++
				}
			}
			if hits < 100 || early < 100 || decided[true] < 100 || decided[false] < 100 {
				t.Fatalf("%d memo hits, %d searches stopped early, decisions %v; want each at least 100", hits, early, decided)
			}
		})
	}
}
