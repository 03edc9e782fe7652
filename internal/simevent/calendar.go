package simevent

import "math"

// calendarQueue is a calendar queue (Brown 1988) specialized for the
// simulator's quantized-timestamp regime. Events hash into power-of-two
// time buckets by virtual bucket index floor(Time/width); a cursor walks
// the buckets in virtual-time order and drainMin lifts the whole minimal
// (Time, class) group out of one bucket in a single scan. Push, remove and
// drain are O(1) amortized when the width tracks the observed event
// spacing; the structure resizes and re-widths itself as the pending count
// crosses powers of two.
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
	scratch []*Event // resize staging, reused
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
		// The cursor may never sit past the earliest pending event; a push
		// behind it (a bound probe unstaging, or a drained-empty restart)
		// pulls it back.
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

// drainMin removes the minimal (Time, class) group and appends it to dst in
// seq order. Same-Time events always share a bucket (vbFor is a function of
// Time alone), so one bucket scan collects the whole group.
func (cq *calendarQueue) drainMin(dst []*Event) []*Event {
	for tries := 0; tries < len(cq.buckets); tries++ {
		var best *Event
		for _, ev := range cq.buckets[int(cq.vb&cq.mask)] {
			if cq.vbFor(ev.Time) <= cq.vb && (best == nil || eventBefore(ev, best)) {
				best = ev
			}
		}
		if best != nil {
			return cq.take(best, dst)
		}
		cq.vb++
	}
	// A whole sweep of empty windows: find the minimum directly and jump
	// the cursor to it. This is what bounds a sparse region — and what
	// serves the far bucket, whose window no cursor walk reaches.
	var best *Event
	for _, b := range cq.buckets {
		for _, ev := range b {
			if best == nil || eventBefore(ev, best) {
				best = ev
			}
		}
	}
	cq.vb = cq.vbFor(best.Time)
	return cq.take(best, dst)
}

// take removes best's whole (Time, class) group from its bucket, appending
// it to dst in seq order.
func (cq *calendarQueue) take(best *Event, dst []*Event) []*Event {
	b := cq.buckets[best.bucket]
	start := len(dst)
	w := b[:0]
	for _, ev := range b {
		if ev.Time == best.Time && ev.class == best.class {
			dst = append(dst, ev)
		} else {
			ev.index = len(w)
			w = append(w, ev)
		}
	}
	for i := len(w); i < len(b); i++ {
		b[i] = nil
	}
	cq.buckets[best.bucket] = w
	cq.n -= len(dst) - start
	// FIFO within the group: insertion sort by seq — same-(Time, class)
	// groups are drawn from one bucket and are almost always tiny.
	grp := dst[start:]
	for i := 1; i < len(grp); i++ {
		for j := i; j > 0 && grp[j].seq < grp[j-1].seq; j-- {
			grp[j], grp[j-1] = grp[j-1], grp[j]
		}
	}
	if cq.n == 0 {
		cq.vb = math.MaxInt64
	} else if cq.n < len(cq.buckets)/2 && len(cq.buckets) > calInitBuckets {
		cq.resize(len(cq.buckets) / 2)
	}
	return dst
}

// resize rehashes every event into nb buckets and recomputes the bucket
// width from the observed time spread — 3x the mean inter-event gap,
// floored so the virtual index space stays far from the clamp. Width
// changes remap every event, so the cursor is re-derived from the true
// minimum; order is unaffected (see the type comment).
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
	evs := cq.scratch[:0]
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for _, b := range cq.buckets {
		for _, ev := range b {
			evs = append(evs, ev)
			if ev.Time < tmin {
				tmin = ev.Time
			}
			if ev.Time > tmax && !math.IsInf(ev.Time, 1) {
				tmax = ev.Time
			}
		}
	}
	if len(evs) > 0 && tmax > tmin {
		w := 3 * (tmax - tmin) / float64(len(evs))
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
	cq.scratch = evs[:0]
}
