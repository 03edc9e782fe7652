package spec

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/approx-analytics/grass/internal/dist"
	"github.com/approx-analytics/grass/internal/task"
)

func TestEffDuration(t *testing.T) {
	cases := []struct {
		v    TaskView
		want float64
	}{
		{TaskView{TNew: 5}, 5}, // fresh
		{TaskView{Running: true, Speculable: true, Copies: 1, TRem: 3, TNew: 5}, 3},         // wait is faster
		{TaskView{Running: true, Speculable: true, Copies: 1, TRem: 9, TNew: 5}, 5},         // rescue
		{TaskView{Running: true, Speculable: false, Copies: 1, TRem: 9, TNew: 5}, 9},        // can't rescue yet
		{TaskView{Running: true, Speculable: true, Copies: MaxCopies, TRem: 9, TNew: 5}, 9}, // copy budget gone
	}
	for i, c := range cases {
		if got := effDuration(c.v); got != c.want {
			t.Errorf("case %d: effDuration = %v, want %v", i, got, c.want)
		}
	}
}

func TestEarliestSetSelectsSmallest(t *testing.T) {
	tasks := []TaskView{
		{Index: 0, TNew: 9},
		{Index: 1, TNew: 1},
		{Index: 2, TNew: 5},
		{Index: 3, TNew: 3},
		{Index: 4, TNew: 7},
	}
	ctx := Ctx{Kind: task.ErrorBound, TargetTasks: 3, TotalTasks: 5}
	got := earliestSet(ctx, tasks)
	if len(got) != 3 {
		t.Fatalf("set size %d", len(got))
	}
	want := map[int]bool{1: true, 3: true, 2: true}
	for _, i := range got {
		if !want[tasks[i].Index] {
			t.Fatalf("unexpected member %d", tasks[i].Index)
		}
	}
}

func TestEarliestSetAllWhenNeedCoversEverything(t *testing.T) {
	tasks := []TaskView{{Index: 0, TNew: 1}, {Index: 1, TNew: 2}}
	ctx := Ctx{Kind: task.ErrorBound, TargetTasks: 5, TotalTasks: 5}
	if got := earliestSet(ctx, tasks); len(got) != 2 {
		t.Fatalf("set size %d, want all", len(got))
	}
}

func TestEarliestSetProperty(t *testing.T) {
	// The selected set must have size need and every member's effective
	// duration must be <= every non-member's (modulo index tie-breaks).
	check := func(seed int64) bool {
		rng := dist.NewRNG(seed)
		n := 2 + rng.Intn(60)
		tasks := make([]TaskView, n)
		for i := range tasks {
			running := rng.Float64() < 0.5
			copies := 0
			if running {
				copies = 1 + rng.Intn(3)
			}
			tasks[i] = TaskView{
				Index:      i,
				Running:    running,
				Speculable: running && rng.Float64() < 0.7,
				Copies:     copies,
				TRem:       rng.Float64() * 10,
				TNew:       0.1 + rng.Float64()*10,
			}
		}
		need := 1 + rng.Intn(n)
		ctx := Ctx{Kind: task.ErrorBound, TargetTasks: need, TotalTasks: n}
		got := earliestSet(ctx, tasks)
		if len(got) != need {
			return false
		}
		in := make(map[int]bool, len(got))
		maxIn := -1.0
		for _, i := range got {
			in[i] = true
			if e := effDuration(tasks[i]); e > maxIn {
				maxIn = e
			}
		}
		for i := range tasks {
			if !in[i] && effDuration(tasks[i]) < maxIn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickselectPairsMatchesSort(t *testing.T) {
	check := func(seed int64) bool {
		rng := dist.NewRNG(seed)
		n := 1 + rng.Intn(100)
		pairs := make([]effIdx, n)
		vals := make([]float64, n)
		for i := range pairs {
			v := float64(rng.Intn(20)) // many ties
			pairs[i] = effIdx{eff: v, idx: i}
			vals[i] = v
		}
		k := rng.Intn(n)
		quickselectPairs(pairs, k)
		sort.Float64s(vals)
		// Every element at or before k must be <= the true k-th smallest.
		for i := 0; i <= k; i++ {
			if pairs[i].eff > vals[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEarliestSetDeterministicWithTies(t *testing.T) {
	tasks := make([]TaskView, 10)
	for i := range tasks {
		tasks[i] = TaskView{Index: i, TNew: 2} // all tied
	}
	ctx := Ctx{Kind: task.ErrorBound, TargetTasks: 4, TotalTasks: 10}
	a := earliestSet(ctx, tasks)
	b := earliestSet(ctx, tasks)
	if len(a) != 4 || len(b) != 4 {
		t.Fatal("wrong size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic under ties")
		}
	}
}
