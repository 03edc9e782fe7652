package simevent

import (
	"math/rand"
	"testing"
)

// The handle-lifetime contract (package doc): a *Event handle is valid
// while its event is pending — that whole time the caller may legally
// Cancel it — and the engine may only hand the same object back from a
// later schedule call after the event has fired or been cancelled. These
// tests hold a shadow set of every handle still pending and witness, for
// both queue implementations, that no schedule call ever returns an object
// aliasing a live handle, and that a live handle never reads as cancelled.

// lifetimeHarness drives one engine with a random schedule/cancel/step/
// clock-jump mix while checking the shadow set after every operation.
func lifetimeHarness(t *testing.T, kind string, eng *Engine, seed int64, nOps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := make(map[*Event]int) // handle -> id, the could-still-Cancel set
	nextID := 0

	check := func(op string) {
		for ev, id := range live {
			if ev.Cancelled() {
				t.Fatalf("%s/%s: pending handle #%d reads Cancelled", kind, op, id)
			}
			if ev.Fn == nil {
				t.Fatalf("%s/%s: pending handle #%d lost its callback — recycled while live", kind, op, id)
			}
		}
	}
	schedule := func(tm float64, first bool) {
		id := nextID
		nextID++
		var ev *Event
		fn := func(*Engine) {
			// Fired: the handle leaves the could-still-Cancel set here, the
			// only legal hand-back point besides Cancel.
			delete(live, ev)
		}
		if first {
			ev = eng.AtFirst(tm, fn)
		} else {
			ev = eng.At(tm, fn)
		}
		if other, clash := live[ev]; clash {
			t.Fatalf("%s: schedule #%d returned the live handle of pending #%d — recycled while a caller could still Cancel it", kind, id, other)
		}
		live[ev] = id
	}
	anyLive := func() *Event {
		// Deterministic pick: the live handle with the smallest id.
		var best *Event
		bestID := -1
		for ev, id := range live {
			if bestID < 0 || id < bestID {
				best, bestID = ev, id
			}
		}
		return best
	}

	for i := 0; i < nOps; i++ {
		switch op := rng.Intn(10); {
		case op < 4:
			// Quantized times force shared buckets and same-time ties.
			schedule(eng.Now()+float64(rng.Intn(8))*0.5, rng.Intn(4) == 0)
			check("schedule")
		case op < 6:
			if ev := anyLive(); ev != nil {
				delete(live, ev)
				eng.Cancel(ev)
				if !ev.Cancelled() {
					t.Fatalf("%s: freshly cancelled handle does not read Cancelled", kind)
				}
			}
			check("cancel")
		case op < 9:
			eng.Step()
			check("step")
		default:
			runUntil(eng, eng.Now()+float64(rng.Intn(4)))
			check("clock-jump")
		}
	}
	for eng.Step() {
	}
	if len(live) != 0 {
		t.Fatalf("%s: %d handles still tracked after a full drain — events lost", kind, len(live))
	}
}

func TestHandleLifetimeContract(t *testing.T) {
	for _, q := range queueKinds {
		q := q
		t.Run(q.name, func(t *testing.T) {
			for seed := int64(0); seed < 50; seed++ {
				lifetimeHarness(t, q.name, q.new(), seed, 400)
			}
		})
	}
}

// FuzzHandleLifetime lets the fuzzer hunt for interleavings the seeded
// harness misses; the op mix is re-derived from the fuzz input.
func FuzzHandleLifetime(f *testing.F) {
	f.Add(int64(1), uint16(400))
	f.Add(int64(99), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, nOps uint16) {
		if nOps > 4000 {
			nOps = 4000
		}
		for _, q := range queueKinds {
			lifetimeHarness(t, q.name, q.new(), seed, int(nOps))
		}
	})
}
