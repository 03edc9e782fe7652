package spec

import (
	"math"
	"slices"
)

// The hot set: the running records a pick must read. A record that a pass
// finds unable to change the pick's decision for a while goes quiet under
// a certificate and leaves the later passes until the certificate may stop
// holding. Both bound kinds certify records:
//
//   - A deadline pick launches a speculative copy only of a speculable
//     record under the copy cap whose t_new meets the deadline and beats
//     its t_rem, so when a pass finds a record that is no candidate it asks
//     certRunning — the per-record argument of the decline certificate —
//     whether the record stays no candidate, and for how long: a wake time
//     (the instant a young copy turns speculable) and a median floor (the
//     smallest t_new median under which its t_new stays above its t_rem
//     bound or the deadline).
//   - An error-bound pick (pickEarliest) speculates only a candidate among
//     the need incomplete tasks with the smallest keys. With B the smallest
//     key a pass leaves out, a member that certRunning keeps no candidate
//     and whose t_rem bound U stays below B goes quiet as a quiet member
//     with U, and a record whose key exceeds θ = B(1+quietMargin) goes
//     quiet as a quiet non-member while its key stays at least θ (outCert),
//     with θ. A pass then reads only the hot records and selects the
//     need − q_in smallest keys of the hot and unscheduled tasks (q_in the
//     quiet members). Let B be that selection's smallest non-member: if
//     every U is below B, each quiet member has at most need − 1 keys
//     below it, and if every θ is above B, each quiet non-member has at
//     least need; so one comparison of the largest U and the smallest θ
//     with B keeps the earliest set exact (boundaryHolds). When it fails,
//     the suspect members are re-bounded from the pick's clock, those
//     still not below B and the suspect non-members return to the hot
//     records, and the selection runs again with them read.
//
// Every certificate holds from the clock it was made at on — the bounds
// only tighten as the clock advances — and a deadline's under every
// remaining time at most the pick's, since a deadline only comes closer.
// So the set keeps one clock and one remaining time (qNow, qRem) that
// every quiet certificate holds from and under, and which kind of pick
// made them (qErr). A quiet record returns to the hot set when
//
//   - its task is re-filed (Update) or removed (Remove);
//   - its wake time passes: the quiet records are a min-heap by wake time;
//   - the median falls below its floor: the quiet records are swept when
//     the median falls below the largest floor;
//   - the clock goes backwards, a pick of the other bound kind comes, or a
//     deadline pick brings a larger remaining time or no deadline: then
//     every quiet record returns;
//   - an error-bound pick's boundary check fails for it, or the pick's
//     need makes its class moot: with need covering every task every
//     non-member returns, with fewer tasks needed than quiet members every
//     member does.
//
// A scheduler phase has one bound kind and its remaining time only falls,
// so the fourth case never happens there. Ground-truth sets and untame
// medians certify no record, so their picks read every running record.
// The set is built at a phase's first pick.
//
// One slice holds every running task while the set is on: the quiet
// records' heap first, the hot records after it in no order. A running
// record's place lives in TaskRec.near, which only unscheduled records use
// otherwise: one plus its position in the slice (0 while the set is off).
// A record goes quiet by swapping into the first hot place and growing the
// heap, and leaves the heap by swapping to its end and shrinking it, which
// leaves the record first among the hot ones; the other hot records keep
// their places, so an error-bound pick keeps its keys at the same places
// (RunBuf.runKeys) for the retry after it.

// hotRec is one running task's entry in the hot set. A quiet entry holds
// its certificate: the first instant it may stop holding and the smallest
// median under which it holds, and under an error-bound pick's its class
// and the bound the boundary check compares — a member's t_rem bound U, a
// non-member's key floor θ.
type hotRec struct {
	wake, floor, bound float64
	task               int32
	member             bool
}

// minHotCap is the capacity the hot set starts from.
const minHotCap = 32

// quietMargin is how far above the boundary B a key must lie for its
// record to go quiet as a non-member: θ = B(1+quietMargin). With none, a
// fresh copy's launch, which moves the boundary up by one key, would send
// the next retry's check to its failure path.
const quietMargin = 0.1

// hotFor readies the hot set for a pick at the set's clock and median: a
// deadline pick with remaining time rem, or with errBound an error-bound
// pick (rem +Inf). It builds the set at its first use, returns every quiet
// record when the clock went backwards, the bound kind changed or rem rose
// (or is NaN), and otherwise the records whose wake passed or whose floor
// the median fell below.
func (vs *ViewSet) hotFor(rem float64, errBound bool) {
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
	case vs.now < vs.qNow || vs.qErr != errBound || !(rem <= vs.qRem):
		vs.wakeAll()
	default:
		for vs.quiet > 0 && !(vs.hot[0].wake > vs.now) {
			vs.unquiet(0)
		}
		if !(vs.maxFloor <= vs.med) {
			med := vs.med
			vs.sweepQuiet(func(h *hotRec) bool { return h.floor <= med })
		}
	}
	vs.qNow, vs.qRem, vs.qErr = vs.now, rem, errBound
}

// startDeadline readies the hot set for a full deadline pass with
// remaining time rem and counts the records the pass reads.
func (vs *ViewSet) startDeadline(rem float64) {
	vs.hotFor(rem, false)
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
	c := DeclineCert{Wake: math.Inf(1)}
	if _, ok := vs.certRunning(&vs.recs[vs.hot[k].task], rem, &c); ok {
		vs.goQuiet(k, c.Wake, c.Floor, 0, false)
	}
}

// goQuiet makes the hot record at position k quiet with a certificate:
// its wake, its floor and, under an error-bound pick's, its bound and
// class. The record that was first among the hot ones takes position k.
func (vs *ViewSet) goQuiet(k int, wake, floor, bound float64, member bool) {
	q := vs.quiet
	vs.swapHot(k, q)
	h := &vs.hot[q]
	h.wake, h.floor, h.bound, h.member = wake, floor, bound, member
	switch {
	case member:
		vs.qIn++
		vs.maxU = max(vs.maxU, bound)
	case vs.qErr:
		vs.minTheta = min(vs.minTheta, bound)
	}
	vs.quiet++
	vs.quietUp(q)
	vs.maxFloor = max(vs.maxFloor, floor)
}

// certifyEarliest makes quiet the hot records of a full error-bound pass
// that it can certify to stay on their side of b, the selection's smallest
// non-member (highestKey when every task is needed); keys holds the hot
// records' keys at their places in the hot set and moves with them. A
// member goes quiet when certRunning keeps it no candidate and its t_rem
// bound stays below b, a non-member when its key exceeds θ = b(1 +
// quietMargin) and outCert keeps it at least θ. A record under the copy
// cap whose key is its t_new is a candidate (or tied) and is skipped
// unread. Non-members may be candidates, so those leave cands. minOut is
// the smallest hot non-member, which may go quiet; it returns how many
// members went quiet and the smallest non-member left hot (highestKey for
// none).
func (vs *ViewSet) certifyEarliest(keys []effIdx, b, minOut effIdx) (members int, newMinOut effIdx) {
	if !vs.certifies() {
		return 0, minOut
	}
	theta := b.eff * (1 + quietMargin)
	outs := theta > b.eff // a positive, finite boundary
	med, out, outMin := vs.med, false, false
	for k := vs.quiet; k < len(vs.hot); k++ {
		key := keys[k]
		r := &vs.recs[key.idx]
		switch {
		case key.less(b):
			if r.Copies < MaxCopies && key.eff == r.tnewAt(med) {
				continue
			}
			c := DeclineCert{Wake: math.Inf(1)}
			if u, ok := vs.certRunning(r, math.Inf(1), &c); ok && u*(1+certEps) < b.eff {
				vs.goQuiet(k, c.Wake, c.Floor, u, true)
				keys[k] = keys[vs.quiet-1]
				members++
			}
		case outs && key.eff > theta:
			if wake, floor, ok := vs.outCert(r, theta); ok {
				vs.goQuiet(k, wake, floor, theta, false)
				keys[k] = keys[vs.quiet-1]
				out, outMin = true, outMin || key == minOut
			}
		}
	}
	if !out {
		return members, minOut
	}
	b0 := vs.run
	cands := b0.cands[:0]
	for _, c := range b0.cands {
		if int(vs.recs[c.key.idx].near) > vs.quiet {
			cands = append(cands, c)
		}
	}
	b0.cands = cands
	if outMin {
		// The smallest hot non-member went quiet: the next is the smallest
		// hot key from it on.
		newMinOut = highestKey
		for _, key := range keys[vs.quiet:len(vs.hot)] {
			if !key.less(minOut) && key.less(newMinOut) {
				newMinOut = key
			}
		}
		return members, newMinOut
	}
	return members, minOut
}

// outCert certifies that running record r's earliest-set key — its t_rem,
// or the smaller of t_rem and t_new once it is speculable under the copy
// cap — stays at least theta, from the set's clock on. With x = End − now,
// t_rem = x(1 + (b−1)(1−p)) ≥ min(1, b)·x for progress p in [0, 1), so
// t_rem stays at least theta until wake = End − theta(1+certEps)/min(1, b),
// less a slack for the roundings (b is TRemBias, lowered by an absolute
// 2⁻⁴⁸ that covers the rounding of the bias term when b is small). Its
// t_new stays at least theta while the median is at least
// floorTerm(theta); a record that never speculates needs no floor, and a
// young one whose t_new may be smaller holds until it turns speculable.
func (vs *ViewSet) outCert(r *TaskRec, theta float64) (wake, floor float64, ok bool) {
	mb := min(1, r.TRemBias) - 0x1p-48
	if !(mb > 0) {
		return 0, 0, false
	}
	a := theta * (1 + certEps) / mb
	wake = r.End - a - 0x1p-46*(math.Abs(r.End)+a)
	if !(wake > vs.now) {
		return 0, 0, false
	}
	if r.Copies >= MaxCopies || !(r.Duration > 0 && r.Duration < math.Inf(1)) {
		return wake, 0, true
	}
	if t := r.floorTerm(theta); t <= vs.med {
		return wake, t, true
	}
	if progress(vs.now, r.Start, r.Duration) < MinSpecProgress && !math.IsInf(r.Start, 0) {
		return min(wake, r.specFrom()), 0, true
	}
	return 0, 0, false
}

// boundaryHolds reports whether every quiet member's t_rem bound, with the
// certificate margin, lies below the selection's smallest non-member key b
// and every quiet non-member's θ above it, read from the running bounds
// maxU and minTheta, which may overstate the spread but never understate
// it.
func (vs *ViewSet) boundaryHolds(b float64) bool {
	return vs.maxU*(1+certEps) < b && vs.minTheta > b
}

// returnSuspects returns the quiet records the boundary b may have passed:
// a non-member whose θ is not above b, and a member whose t_rem bound,
// re-bounded from the current clock, still does not lie below b. The
// member's candidacy certificate still holds, so a member that stays keeps
// it with the tighter bound.
func (vs *ViewSet) returnSuspects(b float64) {
	now := vs.now
	vs.sweepQuiet(func(h *hotRec) bool {
		if !h.member {
			return h.bound > b
		}
		if h.bound*(1+certEps) < b {
			return true
		}
		r := &vs.recs[h.task]
		h.bound = min(h.bound, r.tremBound(now, progress(now, r.Start, r.Duration)))
		return h.bound*(1+certEps) < b
	})
}

// addHot puts running task i in the hot set.
func (vs *ViewSet) addHot(i int) {
	vs.hot = append(vs.hot, hotRec{task: int32(i)})
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
func (vs *ViewSet) wakeAll() {
	vs.quiet, vs.qIn, vs.maxFloor, vs.floorStale = 0, 0, 0, false
	vs.maxU, vs.minTheta = math.Inf(-1), math.Inf(1)
}

// sweepQuiet returns to the hot records every quiet record keep rejects,
// swapping each to the end of the heap, restores the heap over the others
// when any returned, and recomputes the bounds kept over the quiet
// records: the largest floor, the largest member bound and the smallest
// non-member bound. keep may tighten the bound of a record it keeps.
func (vs *ViewSet) sweepQuiet(keep func(*hotRec) bool) {
	mf, mu, mt := 0.0, math.Inf(-1), math.Inf(1)
	in, swept := 0, false
	for k := 0; k < vs.quiet; {
		h := &vs.hot[k]
		if !keep(h) {
			vs.quiet--
			vs.swapHot(k, vs.quiet)
			swept = true
			continue
		}
		mf = max(mf, h.floor)
		if h.member {
			in++
			mu = max(mu, h.bound)
		} else if vs.qErr {
			mt = min(mt, h.bound)
		}
		k++
	}
	vs.qIn, vs.maxFloor, vs.floorStale, vs.maxU, vs.minTheta = in, mf, false, mu, mt
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
// and returns its new position, the first hot place. maxFloor, maxU and
// minTheta stay bounds, maxFloor marked stale when the record may have
// held it and the others reset when no record of their class is left.
func (vs *ViewSet) unquiet(k int) int {
	n := vs.quiet - 1
	f, member := vs.hot[k].floor, vs.hot[k].member
	vs.swapHot(k, n)
	vs.quiet = n
	if k < n {
		vs.quietDown(k)
		vs.quietUp(k)
	}
	if member {
		vs.qIn--
		if vs.qIn == 0 {
			vs.maxU = math.Inf(-1)
		}
	} else if n == vs.qIn {
		vs.minTheta = math.Inf(1)
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

// QuietKind is what a quiet record's certificate holds.
type QuietKind uint8

const (
	// NotQuiet: the record is not quiet.
	NotQuiet QuietKind = iota
	// QuietDeadline: no speculation candidate of a deadline pick.
	QuietDeadline
	// QuietMember: in an error-bound pick's earliest set and no
	// speculation candidate.
	QuietMember
	// QuietOutside: outside an error-bound pick's earliest set.
	QuietOutside
)

// AppendQuiet appends the running tasks the last pick left out of its
// scan, each certified as Quiet reports while the clock advances, a
// deadline's remaining time falls and the median stays at or above its
// floor. The differential tests hold each to the reference views.
func (vs *ViewSet) AppendQuiet(dst []int) []int {
	for _, q := range vs.hot[:vs.quiet] {
		dst = append(dst, int(q.task))
	}
	return dst
}

// Quiet reports what running task i's certificate holds while it is
// quiet, and NotQuiet otherwise.
func (vs *ViewSet) Quiet(i int) QuietKind {
	k := int(vs.recs[i].near) - 1
	switch {
	case vs.recs[i].Copies == 0 || k < 0 || k >= vs.quiet:
		return NotQuiet
	case !vs.qErr:
		return QuietDeadline
	case vs.hot[k].member:
		return QuietMember
	}
	return QuietOutside
}
