package simevent

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	e := New()
	var got []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		e.At(tm, func(*Engine) { got = append(got, tm) })
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func(*Engine) { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	e.At(2.5, func(en *Engine) {
		if en.Now() != 2.5 {
			t.Errorf("Now() = %v inside event at 2.5", en.Now())
		}
	})
	e.Run(0)
	if e.Now() != 2.5 {
		t.Fatalf("final Now() = %v, want 2.5", e.Now())
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at float64
	e.At(3, func(en *Engine) {
		en.After(2, func(en2 *Engine) { at = en2.Now() })
	})
	e.Run(0)
	if at != 5 {
		t.Fatalf("After(2) from t=3 fired at %v, want 5", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		en.At(5, func(*Engine) {})
	})
	e.Run(0)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().After(-1, func(*Engine) {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(1, func(*Engine) { fired = true })
	e.Cancel(ev)
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)

	// A callback may cancel a same-time sibling that has not fired yet.
	var got []string
	var sibling *Event
	e.At(2, func(en *Engine) {
		got = append(got, "killer")
		en.Cancel(sibling)
	})
	sibling = e.At(2, func(*Engine) { got = append(got, "sibling") })
	e.At(2, func(*Engine) { got = append(got, "after") })
	e.Run(0)
	if len(got) != 2 || got[0] != "killer" || got[1] != "after" {
		t.Fatalf("same-time sibling cancel fired %v, want [killer after]", got)
	}
	if !sibling.Cancelled() || e.Len() != 0 || e.Fired() != 2 {
		t.Fatalf("sibling cancelled %v, %d pending, %d fired; want true, 0, 2", sibling.Cancelled(), e.Len(), e.Fired())
	}
	// Cancelling an event that already fired is a no-op as well.
	done := e.At(3, func(*Engine) {})
	e.Run(0)
	e.Cancel(done)
	if done.Cancelled() || e.Len() != 0 {
		t.Fatalf("cancel after firing: Cancelled %v, %d pending; want false, 0", done.Cancelled(), e.Len())
	}
}

func TestCancelMiddleOfQueue(t *testing.T) {
	e := New()
	var got []int
	var evs []*Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.At(float64(i), func(*Engine) { got = append(got, i) }))
	}
	e.Cancel(evs[7])
	e.Cancel(evs[13])
	e.Run(0)
	if len(got) != 18 {
		t.Fatalf("fired %d, want 18", len(got))
	}
	for _, v := range got {
		if v == 7 || v == 13 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("out of order after cancels: %v", got)
	}
}

func TestRunLimit(t *testing.T) {
	e := New()
	// A self-perpetuating event chain must be stopped by the limit.
	var rearm func(*Engine)
	rearm = func(en *Engine) { en.After(1, rearm) }
	e.At(0, rearm)
	n, err := e.Run(100)
	if err == nil {
		t.Fatal("expected limit error")
	}
	if n != 100 {
		t.Fatalf("fired %d, want 100", n)
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(float64(i), func(*Engine) {})
	}
	e.Run(0)
	if e.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", e.Fired())
	}
}

// TestAtFirstOutranksAt: an AtFirst event fires before every same-time At
// event no matter the insertion order, while ties within each class stay
// FIFO — the property that makes streamed job admission order identical to
// the materialized schedule even at tied timestamps.
func TestAtFirstOutranksAt(t *testing.T) {
	e := New()
	var got []string
	e.At(1, func(*Engine) { got = append(got, "at0") })
	e.At(1, func(*Engine) { got = append(got, "at1") })
	e.AtFirst(1, func(*Engine) { got = append(got, "first0") })
	e.AtFirst(1, func(*Engine) { got = append(got, "first1") })
	e.At(0.5, func(*Engine) { got = append(got, "early") })
	e.Run(0)
	want := []string{"early", "first0", "first1", "at0", "at1"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	// Recycling must preserve the class: a pooled ex-AtFirst event
	// scheduled via At no longer outranks anything.
	e.At(2, func(*Engine) { got = append(got, "late-at") })
	e.AtFirst(2, func(*Engine) { got = append(got, "late-first") })
	e.Run(0)
	if got[len(got)-1] != "late-at" {
		t.Fatalf("recycled event kept its old class: %v", got)
	}
}

// TestEventPoolingNoAllocsAfterWarmup pins the free list's purpose: a
// schedule/fire cycle on a warmed-up engine performs no heap allocation,
// so long replays do not generate per-event garbage.
func TestEventPoolingNoAllocsAfterWarmup(t *testing.T) {
	e := New()
	fn := func(*Engine) {}
	// Warm up: populate the free list beyond the steady-state queue depth.
	for i := 0; i < 64; i++ {
		e.At(float64(i), fn)
	}
	e.Run(0)
	allocs := testing.AllocsPerRun(200, func() {
		e.At(e.Now()+1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocated %v objects per op after warm-up, want 0", allocs)
	}
	// Cancelled events are recycled too.
	allocs = testing.AllocsPerRun(200, func() {
		ev := e.At(e.Now()+1, fn)
		e.Cancel(ev)
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocated %v objects per op after warm-up, want 0", allocs)
	}
}

// TestResizeKeepsBucketStorage pins the calendar queue's bucket reuse: a
// resize rehashes into the bucket slices the queue already holds. After a
// warm-up, a schedule-then-drain cycle whose pending count climbs past two
// resize boundaries (32 -> 64 -> 128 buckets) and drains back down
// allocates nothing. Making fresh buckets on every resize costs hundreds
// of allocations per cycle. The storage a bucket keeps is capped, so a
// burst does not pin its capacity for the rest of the run.
func TestResizeKeepsBucketStorage(t *testing.T) {
	e := New()
	fn := func(*Engine) {}
	cycle := func() {
		now := e.Now()
		for i := 0; i < 200; i++ {
			e.At(now+1+float64(i%97), fn)
		}
		e.Run(0)
	}
	// Which buckets the 97 times hash to shifts with the clock, so a few
	// buckets still grow for the first ~100 cycles; warm up well past that.
	for i := 0; i < 400; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("schedule-then-drain cycle allocated %v objects after warm-up, want 0", allocs)
	}

	// A same-time burst fills one bucket far past calKeepCap; the shrinks
	// that follow as it fires give that storage back instead of keeping it.
	now := e.Now()
	for i := 0; i < 1000; i++ {
		e.At(now+1, fn)
	}
	e.At(now+2, fn)
	for e.Len() > 1 {
		e.Step()
	}
	cq := e.q.(*calendarQueue)
	for i, b := range cq.buckets[:cap(cq.buckets)] {
		if cap(b) > calKeepCap {
			t.Fatalf("bucket %d keeps capacity %d after the burst fired, want <= %d", i, cap(b), calKeepCap)
		}
	}
}

// TestEventPoolingReusesObjects verifies fired and cancelled events really
// come back from the free list (identity, not just alloc counting).
func TestEventPoolingReusesObjects(t *testing.T) {
	e := New()
	a := e.At(1, func(*Engine) {})
	e.Cancel(a)
	b := e.At(2, func(*Engine) {})
	if a != b {
		t.Fatal("cancelled event was not recycled by the next At")
	}
	if b.Cancelled() {
		t.Fatal("recycled event still reports Cancelled")
	}
	e.Run(0)
	c := e.At(3, func(*Engine) {})
	if c != b {
		t.Fatal("fired event was not recycled by the next At")
	}
	e.Run(0)
}

// TestCancelledSemanticsWithPooling: the Cancelled query stays correct for
// the window the handle contract allows — after Cancel and before the
// object is handed out again.
func TestCancelledSemanticsWithPooling(t *testing.T) {
	e := New()
	fired := false
	keep := e.At(1, func(*Engine) { fired = true })
	e.Cancel(keep)
	if !keep.Cancelled() {
		t.Fatal("Cancelled() false immediately after Cancel")
	}
	// Double cancel of a not-yet-reused handle stays a no-op.
	e.Cancel(keep)
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// A pending event never reports cancelled; a fired one neither.
	p := e.At(5, func(*Engine) {})
	if p.Cancelled() {
		t.Fatal("pending event reports Cancelled")
	}
	e.Run(0)
}

// TestPoolingPreservesFIFO: recycling must not disturb the (Time, seq)
// total order — a recycled object carries a fresh sequence number.
func TestPoolingPreservesFIFO(t *testing.T) {
	e := New()
	var got []int
	// Round 1 populates the free list.
	for i := 0; i < 8; i++ {
		e.At(1, func(*Engine) {})
	}
	e.Run(0)
	// Round 2 reuses it; ties must still fire in insertion order.
	for i := 0; i < 8; i++ {
		i := i
		e.At(2, func(*Engine) { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO after recycling: %v", got)
		}
	}
}

func TestOrderingProperty(t *testing.T) {
	// For arbitrary non-negative schedules, events always fire in
	// non-decreasing time order and all fire exactly once.
	if err := quick.Check(func(raw []float64) bool {
		e := New()
		times := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v < 0 {
				v = -v
			}
			if v > 1e12 || v != v { // cap and skip NaN
				continue
			}
			times = append(times, v)
		}
		var fired []float64
		for _, tm := range times {
			tm := tm
			e.At(tm, func(*Engine) { fired = append(fired, tm) })
		}
		e.Run(0)
		if len(fired) != len(times) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAtLastFiresAfterSameTimeEvents: an AtLast event fires after every
// same-time AtFirst and At event no matter the insertion order, with FIFO
// ties within the class — the contract that lets a fault injected at time t
// observe every arrival and completion of that instant before it applies.
func TestAtLastFiresAfterSameTimeEvents(t *testing.T) {
	e := New()
	var got []string
	e.AtLast(1, func(*Engine) { got = append(got, "last0") })
	e.At(1, func(*Engine) { got = append(got, "at0") })
	e.AtLast(1, func(*Engine) { got = append(got, "last1") })
	e.AtFirst(1, func(*Engine) { got = append(got, "first0") })
	e.At(1, func(*Engine) { got = append(got, "at1") })
	e.At(0.5, func(*Engine) { got = append(got, "early") })
	e.AtLast(2, func(*Engine) { got = append(got, "next-tick") })
	e.Run(0)
	want := []string{"early", "first0", "at0", "at1", "last0", "last1", "next-tick"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	// An AtLast handler scheduling more same-time work: the new events fire
	// at the same timestamp (every class 0/1 event of the instant has
	// already fired, but the engine must not deadlock or skip them).
	got = got[:0]
	e.AtLast(3, func(en *Engine) {
		got = append(got, "fault")
		en.At(3, func(*Engine) { got = append(got, "respawn") })
	})
	e.Run(0)
	if len(got) != 2 || got[0] != "fault" || got[1] != "respawn" {
		t.Fatalf("AtLast rescheduling same-time work fired %v", got)
	}
	// Cancel applies to pending AtLast events like any other class, and
	// recycling must not leak the class: a pooled ex-AtLast event scheduled
	// via At fires in its new class rank.
	got = got[:0]
	ev := e.AtLast(4, func(*Engine) { got = append(got, "cancelled") })
	e.Cancel(ev)
	e.AtLast(4, func(*Engine) { got = append(got, "last") })
	e.At(4, func(*Engine) { got = append(got, "at") })
	e.Run(0)
	if len(got) != 2 || got[0] != "at" || got[1] != "last" {
		t.Fatalf("cancel/recycle across AtLast fired %v", got)
	}
}

// TestCalendarWidthFollowsFront pins the bucket-width rule: a resize sizes
// the width from the earliest calFront pending times, not the whole
// spread. A front-heavy pending set — 40 events one time unit apart ahead
// of 600 exponentially spread completions and deadlines — puts the front
// three to a bucket (the whole-spread rule would put all 40 in one) and
// no bucket holds many, and the queue still pops in order. When the
// front times are all equal the width falls back to the whole spread.
func TestCalendarWidthFollowsFront(t *testing.T) {
	fill := func(times []float64) *calendarQueue {
		cq := newCalendarQueue()
		for i, tm := range times {
			cq.push(&Event{Time: tm, seq: uint64(i), class: 1})
		}
		cq.resize(len(cq.buckets))
		return cq
	}
	var times []float64
	for i := 0; i < 40; i++ {
		times = append(times, 100+float64(i))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		times = append(times, 1e3+rng.ExpFloat64()*1e5)
	}
	cq := fill(times)
	if cq.width != 3 {
		t.Fatalf("width %v, want 3x the front's mean gap of 1", cq.width)
	}
	for i, b := range cq.buckets {
		front := 0
		for _, ev := range b {
			if ev.Time < 140 {
				front++
			}
		}
		if front > 3 || len(b) > 10 {
			t.Fatalf("bucket %d holds %d events, %d of the front; want at most 10 and 3", i, len(b), front)
		}
	}
	var got []*Event
	for cq.len() > 0 {
		got = append(got, cq.popMin())
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return eventBefore(got[a], got[b]) }) || len(got) != len(times) {
		t.Fatalf("popped %d of %d events, sorted %v", len(got), len(times),
			sort.SliceIsSorted(got, func(a, b int) bool { return eventBefore(got[a], got[b]) }))
	}

	// A same-time burst at the front: the earliest 33 times are equal, so
	// the width comes from the whole spread, 3 x (1000 - 5) / 140.
	times = times[:0]
	for i := 0; i < 40; i++ {
		times = append(times, 5)
	}
	for i := 0; i < 100; i++ {
		times = append(times, 10+float64(i)*990/99)
	}
	if cq := fill(times); cq.width != 3*(1000.0-5)/140 {
		t.Fatalf("burst front: width %v, want the whole-spread rule's %v", cq.width, 3*(1000.0-5)/140)
	}
}
