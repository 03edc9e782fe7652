package simevent

import (
	"math"

	"github.com/approx-analytics/grass/internal/dist"
)

// calendarQueue is a calendar queue (Brown 1988) specialized for the
// simulator's quantized-timestamp regime. Events hash into power-of-two
// time buckets by virtual bucket index floor(Time/width); a cursor walks
// the buckets in virtual-time order and popMin takes the minimal event of
// the first non-empty window. Push, remove and pop are O(1) amortized when
// the width tracks the spacing of the events about to fire; the structure
// resizes and re-widths itself as the pending count crosses powers of two.
// The width follows the queue's front, not its whole spread: heavy-tailed
// completions and far deadlines would otherwise stretch the mean gap and
// pile the near events into a few buckets that every pop rescans.
//
// Correctness does not depend on the width being well tuned — only
// throughput does. The cursor acceptance test compares virtual bucket
// indices computed by the same vbFor the placement used (never re-derived
// float window bounds), so placement and scan can never disagree about
// which window an event belongs to, and the (Time, class, seq) order the
// engine promises is exact for any width. A sweep that finds every window
// empty falls back to a direct minimum search and jumps the cursor there.
type calendarQueue struct {
	buckets [][]*Event
	scratch []*Event  // resize's event list, reused
	times   []float64 // resize's front-time selection, reused
	width   float64
	vb      int64 // cursor's virtual bucket; MaxInt64 when empty
	mask    int64
	n       int
}

const (
	calInitBuckets = 32
	// calMaxVB clamps virtual bucket indices: everything at or beyond it
	// shares one far bucket that only the direct-search fallback visits.
	// Because vbFor is monotone in Time, a minimum in the far bucket means
	// every pending event is there, so scanning it stays correct.
	calMaxVB = int64(1) << 60
	// calKeepCap caps the storage a bucket keeps across a resize. A bucket
	// that once held a same-time burst, or every event while the width
	// was far too wide, would otherwise pin that capacity for the rest of
	// the run in every bucket it ever visited.
	calKeepCap = 64
	// calFront is how many of the earliest pending times resize sizes the
	// width from: 32 gaps, enough to average out a same-time burst.
	calFront = 33
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		width:   1,
		buckets: make([][]*Event, calInitBuckets),
		mask:    calInitBuckets - 1,
		vb:      math.MaxInt64,
	}
}

// vbFor maps a time to its virtual bucket index. Pure and monotone
// nondecreasing in t — both the placement and the cursor scan use it, which
// is what makes the windowed scan exact regardless of float rounding.
func (cq *calendarQueue) vbFor(t float64) int64 {
	q := t / cq.width
	if q >= float64(calMaxVB) {
		return calMaxVB
	}
	return int64(q)
}

func (cq *calendarQueue) len() int { return cq.n }

func (cq *calendarQueue) push(ev *Event) {
	if cq.n+1 > 2*len(cq.buckets) {
		cq.resize(2 * len(cq.buckets))
	}
	cq.n++
	if v := cq.vbFor(ev.Time); v < cq.vb {
		// The cursor may never sit past the earliest pending event. It can
		// sit past a new one (parked on an empty queue, or re-derived by a
		// resize from a pending minimum later than the clock), so a push
		// behind it pulls it back.
		cq.vb = v
	}
	cq.place(ev)
}

func (cq *calendarQueue) place(ev *Event) {
	b := int(cq.vbFor(ev.Time) & cq.mask)
	ev.bucket = int32(b)
	ev.index = len(cq.buckets[b])
	cq.buckets[b] = append(cq.buckets[b], ev)
}

func (cq *calendarQueue) remove(ev *Event) {
	b := cq.buckets[ev.bucket]
	last := len(b) - 1
	b[ev.index] = b[last]
	b[ev.index].index = ev.index
	b[last] = nil
	cq.buckets[ev.bucket] = b[:last]
	cq.n--
	if cq.n < len(cq.buckets)/2 && len(cq.buckets) > calInitBuckets {
		cq.resize(len(cq.buckets) / 2)
	}
}

// popMin removes and returns the minimal pending event. The cursor's
// window holds it, and the scan compares the full (Time, class, seq) order,
// so the event it finds is the unique minimum.
func (cq *calendarQueue) popMin() *Event {
	var best *Event
	for tries := 0; tries < len(cq.buckets); tries++ {
		for _, ev := range cq.buckets[int(cq.vb&cq.mask)] {
			if cq.vbFor(ev.Time) <= cq.vb && (best == nil || eventBefore(ev, best)) {
				best = ev
			}
		}
		if best != nil {
			break
		}
		cq.vb++
	}
	if best == nil {
		// A whole sweep of empty windows: find the minimum directly and
		// jump the cursor to it. This is what bounds a sparse region — and
		// what serves the far bucket, whose window no cursor walk reaches.
		for _, b := range cq.buckets {
			for _, ev := range b {
				if best == nil || eventBefore(ev, best) {
					best = ev
				}
			}
		}
		cq.vb = cq.vbFor(best.Time)
	}
	cq.remove(best)
	if cq.n == 0 {
		cq.vb = math.MaxInt64
	}
	return best
}

// resize rehashes every event into nb buckets and recomputes the bucket
// width: 3x the mean gap among the calFront earliest finite pending times,
// so the events about to fire spread about three to a bucket whatever lies
// beyond them. When those times are all equal (a same-time burst at the
// front) it falls back to 3x the mean gap over the whole spread. Either
// width is floored so the virtual index space stays far from the clamp.
// The front is found by an O(n) selection over a reused scratch, not a
// sort. Width changes remap every event, so the cursor is re-derived from
// the true minimum; order is unaffected (see the type comment).
//
// The bucket storage is kept: every bucket is emptied in place and the
// bucket array only grows, so buckets dropped by a shrink come back with
// their capacity on the next grow. A queue whose pending count oscillates
// across a power of two (one pending arrival plus a burst of completions
// does, every few events) then resizes without allocating once each size
// has been seen. Only a bucket grown past calKeepCap gives its storage
// back.
func (cq *calendarQueue) resize(nb int) {
	if nb < calInitBuckets {
		nb = calInitBuckets
	}
	evs, times := cq.scratch[:0], cq.times[:0]
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for _, b := range cq.buckets {
		for _, ev := range b {
			evs = append(evs, ev)
			if ev.Time < tmin {
				tmin = ev.Time
			}
			if !math.IsInf(ev.Time, 1) {
				times = append(times, ev.Time)
				if ev.Time > tmax {
					tmax = ev.Time
				}
			}
		}
	}
	if len(evs) > 0 && tmax > tmin {
		// tmax > tmin leaves at least two finite times, and tmin is the
		// smallest of them.
		k := min(calFront, len(times))
		w := 3 * (dist.KthSmallest(times, k-1) - tmin) / float64(k-1)
		if w == 0 {
			w = 3 * (tmax - tmin) / float64(len(evs))
		}
		if floor := tmax / float64(int64(1)<<40); w < floor {
			w = floor
		}
		if w > 0 && !math.IsInf(w, 1) {
			cq.width = w
		}
	}
	for i, b := range cq.buckets {
		clear(b)
		if cap(b) > calKeepCap {
			b = nil
		}
		cq.buckets[i] = b[:0]
	}
	if nb > cap(cq.buckets) {
		grown := make([][]*Event, nb)
		copy(grown, cq.buckets[:cap(cq.buckets)])
		cq.buckets = grown
	}
	cq.buckets = cq.buckets[:nb]
	cq.mask = int64(nb - 1)
	cq.vb = math.MaxInt64
	for _, ev := range evs {
		cq.place(ev)
	}
	if len(evs) > 0 {
		cq.vb = cq.vbFor(tmin)
	}
	cq.scratch, cq.times = evs[:0], times[:0]
}
