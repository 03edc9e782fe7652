// Sleeping jobs: a job whose pick declined with a decline certificate
// (spec.DeclineCertifier) sleeps until the certificate stops holding, and
// dispatch offers slots only to the jobs that are awake. Every pick a
// certificate covers declines without a side effect, and a sleeper's
// deficit key does not move within a round, so leaving sleepers out of the
// deficit heap leaves the sequence of offers to awake jobs as it was; the
// offers the sleepers would have had are booked as declined attempts
// (declineSleepers).
//
// A job wakes when its certificate's wake time passes or the t_new median
// falls below its floor (wakeDue, at the start of each round), when an
// event dirties one of its tasks without completing it (dirtyTask) and when
// its phase ends (finishPhase). Completions leave it asleep: a certificate
// covers them, and their dirty marks wait on the job's dirty list for the
// refresh of its first pick after it wakes.
package sched

import (
	"container/heap"
	"math"

	"github.com/approx-analytics/grass/internal/spec"
)

// sleepHeap holds sleeping jobs ordered by one bound of their
// certificates: the earliest wake time on top, or with floor set the
// highest median floor. A sleeper sits in the wake heap when its wake time
// is finite and in the floor heap when its floor is positive, and keeps its
// position in each, so an early wake leaves in O(log sleepers).
type sleepHeap struct {
	js    []*jobState
	floor bool
}

func (h *sleepHeap) Len() int { return len(h.js) }

func (h *sleepHeap) Less(a, b int) bool {
	x, y := &h.js[a].cert, &h.js[b].cert
	if h.floor {
		return x.Floor > y.Floor
	}
	return x.Wake < y.Wake
}

func (h *sleepHeap) Swap(a, b int) {
	h.js[a], h.js[b] = h.js[b], h.js[a]
	*h.pos(h.js[a]) = a
	*h.pos(h.js[b]) = b
}

func (h *sleepHeap) Push(x any) {
	js := x.(*jobState)
	*h.pos(js) = len(h.js)
	h.js = append(h.js, js)
}

func (h *sleepHeap) Pop() any {
	n := len(h.js) - 1
	js := h.js[n]
	h.js[n] = nil
	h.js = h.js[:n]
	return js
}

// pos is js's position field for this heap.
func (h *sleepHeap) pos(js *jobState) *int {
	if h.floor {
		return &js.floorPos
	}
	return &js.wakePos
}

// sleep puts js to sleep under certificate c, which holds now.
func (s *Simulator) sleep(js *jobState, c spec.DeclineCert) {
	js.asleep, js.cert, js.sleptIn = true, c, s.round
	s.sleeping++
	if !math.IsInf(c.Wake, 1) {
		heap.Push(&s.byWake, js)
	}
	if c.Floor > 0 {
		heap.Push(&s.byFloor, js)
	}
}

// wake ends js's sleep, if it sleeps. Its next offer runs its pick.
func (s *Simulator) wake(js *jobState) {
	if !js.asleep {
		return
	}
	js.asleep = false
	s.sleeping--
	if !math.IsInf(js.cert.Wake, 1) {
		heap.Remove(&s.byWake, js.wakePos)
	}
	if js.cert.Floor > 0 {
		heap.Remove(&s.byFloor, js.floorPos)
	}
}

// wakeDue wakes every sleeper whose certificate no longer holds at the
// current clock and t_new median.
func (s *Simulator) wakeDue() {
	now := s.eng.Now()
	for len(s.byWake.js) > 0 && !(s.byWake.js[0].cert.Wake > now) {
		s.wake(s.byWake.js[0])
	}
	if len(s.byFloor.js) == 0 {
		return
	}
	med := s.est.NormalizedMedian()
	for len(s.byFloor.js) > 0 && !(s.byFloor.js[0].cert.Floor <= med) {
		s.wake(s.byFloor.js[0])
	}
}

// declineSleepers books the offers the deficit heap of every job would
// have made to the n jobs asleep since before this round: each is a
// launch attempt its certificate declines. With all set, the awake heap
// emptied with slots free, so that heap would have offered every sleeper;
// otherwise it would have offered exactly the sleepers whose key ranks
// above last, the pre-offer key of the last awake job offered a slot (or
// none, with last at the top sentinel, when no awake job was offered one).
func (s *Simulator) declineSleepers(n int, all bool, last deficitKey) {
	if n == 0 {
		return
	}
	for _, js := range s.byDemand {
		if !js.asleep || js.sleptIn == s.round {
			continue
		}
		js.declined = all || js.key().before(last)
		if js.declined {
			s.skipOffer(js)
		}
	}
}

// skipOffer books an offer to sleeping js that its certificate declines.
func (s *Simulator) skipOffer(js *jobState) {
	s.launchAttempts++
	s.certOffers++
	if s.checkSkip != nil {
		s.checkSkip(js, s.buildCtx(js))
	}
}
