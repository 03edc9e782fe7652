// Package simevent provides the discrete-event simulation engine used by the
// cluster simulator: a time-ordered event queue with a deterministic
// tie-break and a simulation clock.
//
// Events are arbitrary callbacks scheduled at absolute simulation times.
// The total order is (Time, class, seq): ties are broken first by the
// scheduling class (AtFirst before At before AtLast) and then by insertion
// order (FIFO among equal timestamps), so runs are fully reproducible
// regardless of the queue's internals.
//
// # Event queue
//
// A calendar queue (Brown 1988) implements that order: events hash into
// time-width buckets, a cursor walks the buckets in virtual-time order, and
// every event sharing the earliest (Time, class) key is drained in one
// bucket scan — O(1) amortized per event against a heap's O(log n), and a
// single scan where quantized trace timestamps make same-time batches
// common. A binary heap lives in the tests as the reference implementation;
// the differential fuzz harness drives both over random interleavings and
// demands identical behavior.
//
// # Event recycling
//
// Event objects are owned by the engine and recycled through a free list:
// once an event has fired or been cancelled, the engine may hand the same
// object back from a later At/After call. A *Event handle is therefore only
// valid while its event is pending plus the window until the next schedule
// call — callers must drop (or nil out) handles when the event fires or is
// cancelled, and must not Cancel the same handle twice with scheduling in
// between. Million-job replays schedule hundreds of millions of events;
// recycling keeps them from being the simulator's dominant garbage.
package simevent

import (
	"fmt"
)

// Event state sentinels carried in index/bucket. A pending event in the
// heap has index >= 0 and bucket == -1; in the calendar queue index >= 0
// and bucket >= 0 (its bucket's position). Once popped into the engine's
// staged batch, bucket == bucketStaged and index is the batch position, so
// Cancel keeps working on same-time siblings that were staged together.
const bucketStaged = -3

// Event is a scheduled callback. The callback receives the engine so it can
// schedule follow-up events.
type Event struct {
	Fn   func(*Engine)
	Time float64

	seq    uint64 // insertion order, breaks (timestamp, class) ties
	index  int    // queue position (or batch position when staged), -1 fired, -2 cancelled
	bucket int32  // calendar bucket, -1 outside the calendar, bucketStaged in the batch
	class  uint8  // tie rank: AtFirst (0) before At (1) before AtLast (2)
}

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == -2 }

// queue is the pending-event store behind Engine: the calendar queue, or
// the reference heap the tests substitute. Implementations must
// realize the (Time, class, seq) total order exactly: drainMin removes
// every pending event sharing the earliest (Time, class) key and appends
// them to dst in seq (FIFO) order.
type queue interface {
	push(ev *Event)
	drainMin(dst []*Event) []*Event
	remove(ev *Event)
	len() int
}

// eventBefore is the engine's total order: (Time, class, seq).
func eventBefore(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.seq < b.seq
}

// Engine owns the event queue and the simulation clock.
//
// The engine drains the queue in same-(Time, class) batches: one drainMin
// stages the whole group, and Step serves staged events one at a time, so
// run-loop semantics (exact event limits, per-event checks) are unchanged
// while the queue is only consulted once per batch.
type Engine struct {
	q          queue
	batch      []*Event // staged same-(Time, class) events in seq order; nil = consumed
	free       []*Event // recycled fired/cancelled events, see package doc
	now        float64
	batchTime  float64 // fire time of the staged batch (valid when batchLive > 0)
	nextSq     uint64
	fired      uint64
	batchPos   int
	batchLive  int   // staged events not yet fired or cancelled
	batchClass uint8 // class of the staged batch (valid when batchLive > 0)
}

// New returns an engine with the clock at 0.
func New() *Engine {
	return &Engine{q: newCalendarQueue()}
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns how many events have executed, useful for run statistics and
// loop guards in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Len returns the number of pending events (queued plus staged-unfired).
func (e *Engine) Len() int { return e.q.len() + e.batchLive }

// At schedules fn at absolute time t and returns the event handle. It panics
// if t is before the current time — that would reorder history. The handle
// comes from the engine's free list and is reclaimed when the event fires or
// is cancelled (see the package doc for the handle-lifetime contract).
func (e *Engine) At(t float64, fn func(*Engine)) *Event {
	return e.schedule(t, 1, fn)
}

// AtFirst schedules fn at absolute time t ahead of every same-time event
// scheduled with At, regardless of insertion order; ties among AtFirst
// events keep FIFO order. The simulator schedules job arrivals with it so
// that admission order at a tied timestamp does not depend on when the
// arrival was enqueued — the property that makes streamed and materialized
// replays identical even for traces with quantized (tie-prone) timestamps.
func (e *Engine) AtFirst(t float64, fn func(*Engine)) *Event {
	return e.schedule(t, 0, fn)
}

// AtLast schedules fn at absolute time t AFTER every same-time event
// scheduled with AtFirst or At, regardless of insertion order; ties among
// AtLast events keep FIFO order. The simulator schedules fault-injection
// events with it (machine crashes, rack storms, contention bursts): a fault
// at time t observes every arrival and completion of that instant first, so
// the fault schedule composes with the existing (Time, class, seq) total
// order without perturbing the classes the benign goldens pin.
func (e *Engine) AtLast(t float64, fn func(*Engine)) *Event {
	return e.schedule(t, 2, fn)
}

func (e *Engine) schedule(t float64, class uint8, fn func(*Engine)) *Event {
	if t < e.now {
		panic(fmt.Sprintf("simevent: scheduling at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.Time, ev.Fn, ev.class, ev.seq = t, fn, class, e.nextSq
	} else {
		ev = &Event{Time: t, Fn: fn, class: class, seq: e.nextSq}
	}
	e.nextSq++
	if e.batchLive > 0 {
		if t == e.batchTime && class == e.batchClass {
			// Joins the staged batch directly: its seq is larger than every
			// staged member's, so FIFO order puts it at the tail. Arrival
			// chains at tied trace timestamps take this path.
			ev.bucket = bucketStaged
			ev.index = len(e.batch)
			e.batch = append(e.batch, ev)
			e.batchLive++
			return ev
		}
		if t < e.batchTime || (t == e.batchTime && class < e.batchClass) {
			// The new event outranks the staged batch (a bound probe can
			// stage a batch the caller never drained): return the batch to
			// the queue so the order stays exact.
			e.unstage()
		}
	}
	ev.bucket = -1
	e.q.push(ev)
	return ev
}

// unstage pushes unfired staged events back into the queue. Their original
// seq values go with them, so re-draining reproduces the exact order.
func (e *Engine) unstage() {
	for _, ev := range e.batch[e.batchPos:] {
		if ev != nil {
			ev.bucket = -1
			e.q.push(ev)
		}
	}
	e.batch = e.batch[:0]
	e.batchPos, e.batchLive = 0, 0
}

// ensureStaged returns the next unfired staged event, draining the next
// same-(Time, class) group from the queue when the stage is empty. It does
// not consume the event; nil means no events are pending.
func (e *Engine) ensureStaged() *Event {
	for {
		for e.batchPos < len(e.batch) {
			if ev := e.batch[e.batchPos]; ev != nil {
				return ev
			}
			e.batchPos++
		}
		e.batch = e.batch[:0]
		e.batchPos, e.batchLive = 0, 0
		if e.q.len() == 0 {
			return nil
		}
		e.batch = e.q.drainMin(e.batch)
		for i, ev := range e.batch {
			ev.bucket = bucketStaged
			ev.index = i
		}
		e.batchLive = len(e.batch)
		e.batchTime = e.batch[0].Time
		e.batchClass = e.batch[0].class
	}
}

// recycle returns a dead event to the free list. The callback reference is
// dropped so recycling never pins the scheduler state a closure captured.
func (e *Engine) recycle(ev *Event) {
	ev.Fn = nil
	e.free = append(e.free, ev)
}

// After schedules fn delta time units from now.
func (e *Engine) After(delta float64, fn func(*Engine)) *Event {
	if delta < 0 {
		panic(fmt.Sprintf("simevent: negative delay %v", delta))
	}
	return e.At(e.now+delta, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op. Staged events — same-time siblings
// already drained from the queue but not yet fired — cancel exactly like
// queued ones, which is what a sibling-kill at a tied timestamp needs.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	if ev.bucket == bucketStaged {
		e.batch[ev.index] = nil
		e.batchLive--
		ev.index, ev.bucket = -2, -1
		e.recycle(ev)
		return
	}
	if ev.index < 0 {
		return
	}
	e.q.remove(ev)
	ev.index, ev.bucket = -2, -1
	e.recycle(ev)
}

// Step fires the next event, advancing the clock. It returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	ev := e.ensureStaged()
	if ev == nil {
		return false
	}
	e.batch[e.batchPos] = nil
	e.batchPos++
	e.batchLive--
	ev.index, ev.bucket = -1, -1
	e.now = ev.Time
	e.fired++
	ev.Fn(e)
	// Recycle only after the callback returns: the callback may still read
	// the handle (but must drop it afterwards — see the package doc).
	e.recycle(ev)
	return true
}

// Run fires events until the queue drains or until limit events have fired
// (limit <= 0 means no limit). It returns the number of events fired by this
// call and an error if the limit was hit — a guard against runaway
// simulations.
func (e *Engine) Run(limit uint64) (uint64, error) {
	return e.RunEvery(limit, 0, nil)
}

// RunEvery is Run with a periodic stop check: every `every` fired events
// (and once before the first) check is called, and a non-nil error stops
// the loop immediately and is returned with the queue intact. every <= 0 or
// a nil check is plain Run. The simulator uses this for context
// cancellation — the check keys the cost off the hot path (one call per
// batch, not per event), and stopping between events never observes a
// half-applied callback, so the abandoned state is internally consistent.
func (e *Engine) RunEvery(limit, every uint64, check func() error) (uint64, error) {
	var n uint64
	if check != nil {
		if err := check(); err != nil {
			return 0, err
		}
	}
	for e.Step() {
		n++
		if limit > 0 && n >= limit {
			if e.Len() > 0 {
				return n, fmt.Errorf("simevent: event limit %d reached with %d events pending", limit, e.Len())
			}
			return n, nil
		}
		if check != nil && every > 0 && n%every == 0 {
			if err := check(); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// RunUntil fires events with time <= t, then advances the clock to exactly t
// if it has not passed it. Events scheduled after t remain queued.
func (e *Engine) RunUntil(t float64) {
	for ev := e.ensureStaged(); ev != nil && ev.Time <= t; ev = e.ensureStaged() {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
