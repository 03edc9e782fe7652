package spec

import (
	"math"
	"slices"
)

// The hot set: the running records a deadline pick may find a speculation
// candidate. A deadline pick launches a speculative copy only of a
// speculable record under the copy cap whose t_new meets the deadline and
// beats its t_rem, so when a pass finds a record that is no candidate it
// asks certRunning — the per-record argument of the decline certificate —
// whether the record stays no candidate, and for how long. A certified
// record goes quiet with its certificate: a wake time (the instant a young
// copy turns speculable) and a median floor (the smallest t_new median
// under which its t_new stays above its t_rem bound or the deadline).
// Deadline picks then read only the hot records.
//
// Every certificate holds from the clock it was made at on and under every
// remaining time at most the pick's, since the bounds only tighten as the
// clock advances and a deadline only comes closer. So the set keeps one
// clock and one remaining time (qNow, qRem) that every quiet certificate
// holds from and under, and a quiet record returns to the hot set when
//
//   - its task is re-filed (Update) or removed (Remove);
//   - its wake time passes: the quiet records are a min-heap by wake time;
//   - the median falls below its floor: the quiet records are swept when
//     the median falls below the largest floor;
//   - the clock goes backwards, or a pick brings a larger remaining time or
//     no deadline: then every quiet record returns.
//
// A scheduler phase has one bound kind and its remaining time only falls,
// so the last case never happens there. Ground-truth sets and untame
// medians certify no record, so their deadline picks read every running
// record. The set is built at a phase's first deadline pick, so
// error-bound phases pay nothing for it.
//
// One slice holds every running task while the set is on: the quiet
// records' heap first, the hot records after it in no order. A running
// record's place lives in TaskRec.near, which only unscheduled records use
// otherwise: one plus its position in the slice (0 while the set is off).
// A record goes quiet by swapping into the first hot place and growing the
// heap, and leaves the heap by swapping to its end and shrinking it, which
// leaves the record first among the hot ones.

// hotRec is one running task's entry in the hot set. A quiet entry holds
// its certificate: the first instant the task may become a candidate and
// the smallest median under which it stays out.
type hotRec struct {
	wake, floor float64
	task        int
}

// minHotCap is the capacity the hot set starts from.
const minHotCap = 32

// hotFor readies the hot set for a deadline pick with remaining time rem
// at the set's clock and median: it builds the set at its first use,
// returns every quiet record when the clock went backwards or rem rose
// (or is NaN), and otherwise the records whose wake passed or whose floor
// the median fell below.
func (vs *ViewSet) hotFor(rem float64) {
	switch {
	case !vs.hotOn:
		// A set starts with no running task; growing from 32 entries (or
		// the phase's tasks) spares a pooled set the small reallocations.
		vs.hotOn = true
		vs.hot = slices.Grow(vs.hot, max(cap(vs.running), min(len(vs.recs), minHotCap)))
		for _, i := range vs.running {
			vs.addHot(i)
		}
	case vs.quiet == 0:
	case vs.now < vs.qNow || !(rem <= vs.qRem):
		vs.wakeAll()
	default:
		for vs.quiet > 0 && !(vs.hot[0].wake > vs.now) {
			vs.unquiet(0)
		}
		if !(vs.maxFloor <= vs.med) {
			vs.sweepFloors()
		}
	}
	vs.qNow, vs.qRem = vs.now, rem
}

// startDeadline readies the hot set for a full deadline pass with
// remaining time rem and counts the records the pass reads.
func (vs *ViewSet) startDeadline(rem float64) {
	vs.hotFor(rem)
	vs.run.scanned += uint64(len(vs.hot) - vs.quiet)
	vs.run.scanRunning += uint64(len(vs.running))
}

// certifies reports whether the set's records may go quiet: not under
// ground truth, whose records are always speculable, nor under an untame
// median, whose products may round without a relative bound.
func (vs *ViewSet) certifies() bool { return !vs.groundTruth && tame(vs.med) }

// quietOut asks whether the hot record at position k stays no candidate of
// a deadline pick with remaining time rem and, if certRunning certifies
// it, makes it quiet with its certificate. The record at position k then
// is one that was first among the hot records, which a pass walking the
// hot records upwards has already read.
func (vs *ViewSet) quietOut(k int, rem float64) {
	i := vs.hot[k].task
	c := DeclineCert{Wake: math.Inf(1)}
	if _, ok := vs.certRunning(&vs.recs[i], rem, &c); !ok {
		return
	}
	q := vs.quiet
	vs.swapHot(k, q)
	vs.hot[q].wake, vs.hot[q].floor = c.Wake, c.Floor
	vs.quiet++
	vs.quietUp(q)
	vs.maxFloor = max(vs.maxFloor, c.Floor)
}

// addHot puts running task i in the hot set.
func (vs *ViewSet) addHot(i int) {
	vs.hot = append(vs.hot, hotRec{task: i})
	vs.recs[i].near = int32(len(vs.hot))
}

// dropHot takes running task i out of the hot set, quiet or not.
func (vs *ViewSet) dropHot(i int) {
	k := int(vs.recs[i].near) - 1
	if k < 0 {
		return
	}
	if k < vs.quiet {
		k = vs.unquiet(k)
	}
	vs.swapHot(k, len(vs.hot)-1)
	vs.hot = vs.hot[:len(vs.hot)-1]
	vs.recs[i].near = 0
}

// rehot returns running task i to the hot records when it is quiet: its
// task was re-filed.
func (vs *ViewSet) rehot(i int) {
	if k := int(vs.recs[i].near) - 1; k >= 0 && k < vs.quiet {
		vs.unquiet(k)
	}
}

// wakeAll returns every quiet record to the hot records.
func (vs *ViewSet) wakeAll() { vs.quiet, vs.maxFloor, vs.floorStale = 0, 0, false }

// sweepFloors returns the quiet records whose floor the median fell below,
// swapping each to the end of the heap, and restores the heap over the
// others when any returned.
func (vs *ViewSet) sweepFloors() {
	mf, swept := 0.0, false
	for k := 0; k < vs.quiet; {
		if f := vs.hot[k].floor; f <= vs.med {
			mf = max(mf, f)
			k++
			continue
		}
		vs.quiet--
		vs.swapHot(k, vs.quiet)
		swept = true
	}
	vs.maxFloor, vs.floorStale = mf, false
	if swept {
		for k := vs.quiet/2 - 1; k >= 0; k-- {
			vs.quietDown(k)
		}
	}
}

// quietFloor returns the largest floor of the quiet records, 0 when there
// is none.
func (vs *ViewSet) quietFloor() float64 {
	if vs.floorStale {
		vs.maxFloor, vs.floorStale = 0, false
		for _, q := range vs.hot[:vs.quiet] {
			vs.maxFloor = max(vs.maxFloor, q.floor)
		}
	}
	return vs.maxFloor
}

// unquiet returns the quiet record at heap position k to the hot records
// and returns its new position, the first hot place. maxFloor stays an
// upper bound, marked stale when the record may have held it.
func (vs *ViewSet) unquiet(k int) int {
	n := vs.quiet - 1
	f := vs.hot[k].floor
	vs.swapHot(k, n)
	vs.quiet = n
	if k < n {
		vs.quietDown(k)
		vs.quietUp(k)
	}
	switch {
	case n == 0:
		vs.maxFloor, vs.floorStale = 0, false
	case f > 0 && f == vs.maxFloor:
		vs.floorStale = true
	}
	return n
}

// swapHot swaps the hot set's entries a and b and their tasks' places.
func (vs *ViewSet) swapHot(a, b int) {
	h := vs.hot
	h[a], h[b] = h[b], h[a]
	vs.recs[h[a].task].near = int32(a + 1)
	vs.recs[h[b].task].near = int32(b + 1)
}

// quietUp moves quiet heap entry k up to its place.
func (vs *ViewSet) quietUp(k int) {
	for k > 0 {
		p := (k - 1) / 2
		if !(vs.hot[k].wake < vs.hot[p].wake) {
			return
		}
		vs.swapHot(k, p)
		k = p
	}
}

// quietDown moves quiet heap entry k down to its place.
func (vs *ViewSet) quietDown(k int) {
	h := vs.hot[:vs.quiet]
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].wake < h[c].wake {
			c++
		}
		if !(h[c].wake < h[k].wake) {
			return
		}
		vs.swapHot(k, c)
		k = c
	}
}

// AppendQuiet appends the running tasks a deadline pick left out of its
// scan, each certified to be no speculation candidate while the clock
// advances, the remaining time falls and the median stays at or above its
// floor. The differential tests hold each to the reference views.
func (vs *ViewSet) AppendQuiet(dst []int) []int {
	for _, q := range vs.hot[:vs.quiet] {
		dst = append(dst, q.task)
	}
	return dst
}
