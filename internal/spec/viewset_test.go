package spec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/approx-analytics/grass/internal/task"
)

// These property tests hold PickIncremental to Pick over adversarial
// synthetic candidate states: TNew/TRem values drawn from a tiny discrete
// set so key ties — which a real simulation produces with probability
// zero, but which the first-wins tie-break contract must still resolve
// identically — occur constantly, and every running/unscheduled mix,
// pruning depth and deadline slack gets sampled.

// randViews builds a random consistent view slice (ascending indices,
// possibly with completed gaps) and the equivalent sealed ViewSet. Most
// sets are small and tie-dense; one in eight is large with a small
// running set, the shape where EarliestCandidates' binary searches of the
// unscheduled order do the pruning; one in eight is wide, about half of
// up to ~2,000 tasks running — a large phase holding hundreds of slots,
// where the selection over the running keys runs many probes deep.
func randViews(rng *rand.Rand) ([]TaskView, *ViewSet) {
	n := 1 + rng.Intn(12)
	runDenom := 2 // half the tasks running
	switch rng.Intn(8) {
	case 0:
		n = 50 + rng.Intn(350)
		runDenom = 10 // a large job's running set is its small slot share
	case 1:
		n = 300 + rng.Intn(1700)
	}
	total := n + rng.Intn(4) // dense size incl. "completed" gaps
	vs := &ViewSet{}
	vs.Reset(total)
	var views []TaskView
	perm := rng.Perm(total)[:n]
	keep := map[int]bool{}
	for _, i := range perm {
		keep[i] = true
	}
	tie := []float64{1, 2, 3} // tiny key alphabet: ties everywhere
	for i := 0; i < total; i++ {
		if !keep[i] {
			continue
		}
		v := TaskView{Index: i, TNew: tie[rng.Intn(len(tie))]}
		if rng.Intn(runDenom) == 0 {
			v.Running = true
			v.Copies = 1 + rng.Intn(4)
			v.Speculable = rng.Intn(3) > 0
			v.TRem = tie[rng.Intn(len(tie))]
			if rng.Intn(8) == 0 {
				v.TRem = 0 // a copy at its exact finish time
			}
			v.Elapsed = float64(rng.Intn(4)) // 0 disables LATE candidacy
			v.Progress = float64(rng.Intn(3)) * 0.25
		}
		views = append(views, v)
		vs.Init(v)
	}
	vs.Seal()
	return views, vs
}

func randCtx(rng *rand.Rand, n int) Ctx {
	ctx := Ctx{
		TotalTasks:        n,
		TargetTasks:       1 + rng.Intn(n+1),
		CompletedTasks:    rng.Intn(n),
		WaveWidth:         1 + rng.Intn(20),
		SpeculativeCopies: rng.Intn(3),
	}
	if rng.Intn(2) == 1 {
		ctx.Kind = task.DeadlineBound
		ctx.RemainingTime = []float64{0.5, 1, 1.5, 2, 3, 100}[rng.Intn(6)]
	} else {
		ctx.Kind = task.ErrorBound
	}
	return ctx
}

// TestPickIncrementalMatchesPick cross-checks every incremental policy
// against its reference Pick on thousands of tie-riddled random states.
func TestPickIncrementalMatchesPick(t *testing.T) {
	policies := []IncrementalPolicy{
		NewGS(), NewRAS(), NewLATE(), NewMantri(), NoSpec{},
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 5000; iter++ {
		views, vs := randViews(rng)
		ctx := randCtx(rng, len(views))
		for _, p := range policies {
			want, wantOK := p.Pick(ctx, views)
			got, gotOK := p.PickIncremental(ctx, vs)
			if wantOK != gotOK || (wantOK && want != got) {
				t.Fatalf("iter %d policy %s ctx %+v:\nviews %+v\nPick            = (%+v, %v)\nPickIncremental = (%+v, %v)",
					iter, p.Name(), ctx, views, want, wantOK, got, gotOK)
			}
		}
	}
}

// TestViewSetMaintenance drives a random sequence of launches, idles,
// TNew changes and completions through a ViewSet and checks, after every
// operation, that its compacted views and every policy decision match a
// freshly built set — the incremental structures never drift from what a
// rebuild would produce.
func TestViewSetMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	policies := []IncrementalPolicy{
		NewGS(), NewRAS(), NewLATE(), NewMantri(), NoSpec{},
	}
	for iter := 0; iter < 300; iter++ {
		views, vs := randViews(rng)
		byIndex := map[int]*TaskView{}
		for i := range views {
			byIndex[views[i].Index] = &views[i]
		}
		tie := []float64{1, 2, 3}
		for op := 0; op < 30 && len(views) > 0; op++ {
			pick := views[rng.Intn(len(views))].Index
			v := byIndex[pick]
			switch rng.Intn(4) {
			case 0: // launch or add a copy
				if !v.Running {
					vs.NoteLaunched(pick)
					v.Running, v.Copies, v.TRem = true, 1, tie[rng.Intn(len(tie))]
					v.Speculable = rng.Intn(2) == 1
					v.Elapsed = float64(rng.Intn(3))
				} else {
					v.Copies++
				}
				vs.Update(*v)
			case 1: // preempt to idle
				if v.Running {
					vs.NoteIdle(pick)
					*v = TaskView{Index: pick, TNew: v.TNew}
					vs.Update(*v)
				}
			case 2: // oracle-style TNew redraw
				v.TNew = tie[rng.Intn(len(tie))]
				vs.Update(*v)
			case 3: // completion
				vs.Complete(pick)
				delete(byIndex, pick)
				for i := range views {
					if views[i].Index == pick {
						views = append(views[:i], views[i+1:]...)
						break
					}
				}
				for i := range views {
					byIndex[views[i].Index] = &views[i]
				}
			}
			compact := vs.AppendCompact(nil)
			if len(compact) != len(views) {
				t.Fatalf("iter %d op %d: compact len %d want %d", iter, op, len(compact), len(views))
			}
			for i := range compact {
				if compact[i] != views[i] {
					t.Fatalf("iter %d op %d: view %d diverged: %+v != %+v", iter, op, i, compact[i], views[i])
				}
			}
			if got, want := vs.MedianTNew(), sortedMedianTNew(compact); got != want {
				t.Fatalf("iter %d op %d: MedianTNew %v, sorted median %v", iter, op, got, want)
			}
			if len(views) == 0 {
				break
			}
			ctx := randCtx(rng, len(views))
			for _, p := range policies {
				want, wantOK := p.Pick(ctx, views)
				got, gotOK := p.PickIncremental(ctx, vs)
				if wantOK != gotOK || (wantOK && want != got) {
					t.Fatalf("iter %d op %d policy %s: Pick (%+v,%v) != PickIncremental (%+v,%v)\nviews %+v",
						iter, op, p.Name(), want, wantOK, got, gotOK, views)
				}
			}
		}
	}
}

// sortedMedianTNew is the median TNew of views by a full sort, with the
// reference averaging for even counts; zero when views is empty.
func sortedMedianTNew(views []TaskView) float64 {
	if len(views) == 0 {
		return 0
	}
	vals := make([]float64, len(views))
	for i, v := range views {
		vals[i] = v.TNew
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// TestViewSetBulkRescale exercises the estimator-bump path: a uniform
// rescale via SetTNewBulk + ResortByTNew must leave the set answering
// queries identically to a from-scratch build with the new values.
func TestViewSetBulkRescale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		views, vs := randViews(rng)
		f := []float64{0.5, 1.0, 1.75}[rng.Intn(3)]
		for i := range views {
			views[i].TNew *= f
			vs.SetTNewBulk(views[i].Index, views[i].TNew)
		}
		vs.ResortByTNew()
		fresh := &ViewSet{}
		fresh.Reset(len(vs.views))
		for _, v := range views {
			fresh.Init(v)
		}
		fresh.Seal()
		ctx := randCtx(rng, len(views))
		for _, p := range []IncrementalPolicy{NewGS(), NewRAS()} {
			a, aok := p.PickIncremental(ctx, vs)
			b, bok := p.PickIncremental(ctx, fresh)
			if aok != bok || (aok && a != b) {
				t.Fatalf("iter %d: rescaled set (%+v,%v) != fresh set (%+v,%v)", iter, a, aok, b, bok)
			}
		}
		if vs.MedianTNew() != fresh.MedianTNew() {
			t.Fatalf("iter %d: median %v != %v after rescale", iter, vs.MedianTNew(), fresh.MedianTNew())
		}
	}
}

var (
	sinkRunIn []int
	sinkFresh int
)

// BenchmarkEarliestCandidates times the error-bound earliest-set selection
// on a sealed 2,000-task ViewSet as the running set widens toward a large
// phase's share of the default 400-slot cluster, with need cutting shallow
// (a tenth of the tasks) and deep (nine tenths). The selection works in
// the set's reusable scratch, so once the warm-up call has grown it, a
// call must not allocate: scripts/perfwall.sh walls allocs/op at 0.
func BenchmarkEarliestCandidates(b *testing.B) {
	const n = 2000
	cuts := []struct {
		name string
		need int
	}{{"shallow", n / 10}, {"deep", n * 9 / 10}}
	for _, running := range []int{16, 128, 400} {
		for _, cut := range cuts {
			b.Run(fmt.Sprintf("running=%d/need=%s", running, cut.name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(running)))
				isRunning := make([]bool, n)
				for _, i := range rng.Perm(n)[:running] {
					isRunning[i] = true
				}
				vs := &ViewSet{}
				vs.Reset(n)
				for i := 0; i < n; i++ {
					v := TaskView{Index: i, TNew: 0.5 + rng.Float64()}
					if isRunning[i] {
						v.Running, v.Copies = true, 1
						v.Speculable = rng.Intn(4) > 0
						v.TRem = 3 * rng.Float64() // some finish soon, some straggle
					}
					vs.Init(v)
				}
				vs.Seal()
				vs.EarliestCandidates(cut.need)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkRunIn, sinkFresh = vs.EarliestCandidates(cut.need)
				}
			})
		}
	}
}
