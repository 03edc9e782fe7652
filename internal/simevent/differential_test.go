package simevent

import (
	"fmt"
	"math/rand"
	"testing"
)

// The heap-vs-calendar differential harness: the same operation stream —
// At/AtFirst/AtLast/After/Cancel/Step and clock jumps, with recycling
// always on — drives one engine per queue implementation, and every
// observable (fire order, clock, fired count, pending count, cancellation
// behavior) must match exactly. The heap is the reference; the calendar
// queue has no correctness budget of its own.

// qdriver runs one engine through the shared op script, logging every
// observation. Callbacks exercise same-time ordering deliberately: some
// events schedule a same-time follow-up from inside their callback (the
// tied-arrival chain), some cancel a same-time sibling that has not fired
// yet (the sibling-kill at a tied timestamp). popMin's order must place
// both exactly where the heap does.
type qdriver struct {
	eng  *Engine
	pend map[int]*Event
	log  []string
}

// runUntil is the harnesses' clock jump: it schedules an AtLast sentinel at
// t and steps until the sentinel fires, so every event ordered before it
// fires and the clock ends at exactly t.
func runUntil(e *Engine, t float64) {
	reached := false
	e.AtLast(t, func(*Engine) { reached = true })
	for !reached {
		e.Step()
	}
}

func newQdriver(eng *Engine) *qdriver {
	return &qdriver{eng: eng, pend: make(map[int]*Event)}
}

func (d *qdriver) note(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf(format, args...))
}

// schedule registers event id at time t. Child events spawned from
// callbacks get ids >= childBase so they never spawn grandchildren.
const childBase = 1 << 20

func (d *qdriver) schedule(id int, t float64, class int) {
	fn := func(eng *Engine) {
		delete(d.pend, id)
		d.note("fire %.6g #%d", eng.Now(), id)
		if id >= childBase {
			return
		}
		if id%5 == 0 {
			// Same-time follow-up from inside the callback: its seq is the
			// largest, so it fires after the pending same-time At events.
			d.schedule(id+childBase, eng.Now(), 1)
		}
		if id%7 == 0 {
			d.schedule(id+2*childBase, eng.Now()+0.5, 0)
		}
		if id%11 == 0 {
			// Same-time AtLast from inside a callback — the fault-injection
			// shape: it fires after every same-time AtFirst and At event,
			// including ones scheduled after it.
			d.schedule(id+3*childBase, eng.Now(), 2)
		}
		if id%3 == 0 {
			// Sibling kill: cancel the next id if it is still pending —
			// often a same-time sibling that has not fired yet.
			if ev, ok := d.pend[id+1]; ok {
				d.cancel(id+1, ev)
			}
		}
	}
	var ev *Event
	switch class {
	case 0:
		ev = d.eng.AtFirst(t, fn)
	case 2:
		ev = d.eng.AtLast(t, fn)
	default:
		ev = d.eng.At(t, fn)
	}
	d.pend[id] = ev
	d.note("sched %.6g #%d class=%d", t, id, class)
}

func (d *qdriver) cancel(id int, ev *Event) {
	d.eng.Cancel(ev)
	if !ev.Cancelled() {
		d.note("cancel #%d NOT marked cancelled", id)
	} else {
		d.note("cancel #%d", id)
	}
	delete(d.pend, id)
}

// minPending returns the smallest pending id — the deterministic pick for
// cancellation ops (map iteration order must not leak into the script).
func (d *qdriver) minPending() (int, *Event, bool) {
	best := -1
	for id := range d.pend {
		if best < 0 || id < best {
			best = id
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return best, d.pend[best], true
}

// applyOps interprets the byte script against one driver.
func (d *qdriver) applyOps(ops []byte) {
	id := 0
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		// Quantized deltas: arg>>4 in {0..15} halved — tie-heavy on purpose.
		delta := float64(arg>>4) * 0.5
		switch op % 7 {
		case 0:
			d.schedule(id, d.eng.Now()+delta, 1)
			id++
		case 1:
			d.schedule(id, d.eng.Now()+delta, 0)
			id++
		case 6:
			d.schedule(id, d.eng.Now()+delta, 2)
			id++
		case 2:
			ev := d.eng.After(delta, func(eng *Engine) {
				d.note("fire-after %.6g", eng.Now())
			})
			// After events are anonymous: cancel immediately half the time
			// so the handle never goes stale.
			if arg%2 == 0 {
				d.eng.Cancel(ev)
				d.note("cancel-after")
			}
		case 3:
			if cid, ev, ok := d.minPending(); ok {
				d.cancel(cid, ev)
			}
		case 4:
			fired := d.eng.Step()
			d.note("step %v now=%.6g fired=%d len=%d", fired, d.eng.Now(), d.eng.Fired(), d.eng.Len())
		case 5:
			runUntil(d.eng, d.eng.Now()+delta)
			d.note("until now=%.6g fired=%d len=%d", d.eng.Now(), d.eng.Fired(), d.eng.Len())
		}
	}
	// Drain both engines completely so every scheduled event's fire order
	// is part of the comparison.
	for d.eng.Step() {
	}
	d.note("end now=%.6g fired=%d len=%d", d.eng.Now(), d.eng.Fired(), d.eng.Len())
}

// diffQueues runs the script against both queue kinds and reports the
// first observation that differs.
func diffQueues(t *testing.T, ops []byte) {
	t.Helper()
	ref := newQdriver(newHeapEngine())
	cal := newQdriver(New())
	ref.applyOps(ops)
	cal.applyOps(ops)
	if len(ref.log) != len(cal.log) {
		t.Fatalf("heap made %d observations, calendar %d\nheap tail: %v\ncalendar tail: %v",
			len(ref.log), len(cal.log), tail(ref.log), tail(cal.log))
	}
	for i := range ref.log {
		if ref.log[i] != cal.log[i] {
			t.Fatalf("observation %d diverges:\n  heap:     %s\n  calendar: %s", i, ref.log[i], cal.log[i])
		}
	}
}

func tail(log []string) []string {
	if len(log) > 5 {
		return log[len(log)-5:]
	}
	return log
}

// FuzzQueueDifferential is the harness CI runs with a short budget; the
// corpus seeds cover same-time follow-ups, class ties and sibling cancels
// by construction.
func FuzzQueueDifferential(f *testing.F) {
	// Tie-heavy mixed script: same-time At/AtFirst with steps interleaved.
	f.Add([]byte{0, 0x10, 1, 0x10, 0, 0x10, 4, 0, 0, 0x00, 1, 0x00, 4, 0, 4, 0})
	// A clock jump short of a pending same-time pair, then a schedule that
	// outranks the pair.
	f.Add([]byte{0, 0x80, 0, 0x80, 5, 0x20, 0, 0x30, 4, 0, 4, 0, 4, 0})
	// Cancel-heavy: same-time sibling cancels via the id%3 sibling kill.
	f.Add([]byte{0, 0x20, 0, 0x20, 0, 0x20, 0, 0x20, 3, 0, 4, 0, 3, 0, 4, 0})
	// After + immediate cancel + a clock jump.
	f.Add([]byte{2, 0x11, 2, 0x22, 0, 0x00, 5, 0x40, 1, 0x00, 4, 0})
	// AtLast tied with At/AtFirst at one timestamp, then steps.
	f.Add([]byte{6, 0x10, 0, 0x10, 1, 0x10, 6, 0x10, 4, 0, 4, 0, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		diffQueues(t, ops)
	})
}

// TestQueueDifferentialRandom covers the same harness under plain `go
// test`: 300 seeded random scripts, long enough to cross calendar resize
// thresholds in both directions.
func TestQueueDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(240)
		ops := make([]byte, 2*n)
		rng.Read(ops)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			diffQueues(t, ops)
		})
	}
}
