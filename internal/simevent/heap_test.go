package simevent

import "container/heap"

// heapQueue is the binary-heap queue — the original engine and the
// reference implementation the differential harness checks the calendar
// queue against. O(log n) per push/pop.
type heapQueue struct {
	h eventHeap
}

// newHeapEngine returns an engine running on the reference heap.
func newHeapEngine() *Engine { return &Engine{q: &heapQueue{}} }

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) remove(ev *Event) { heap.Remove(&q.h, ev.index) }

func (q *heapQueue) len() int { return len(q.h) }

// drainMin pops the heap while the top shares the minimum (Time, class);
// heap pops among equal keys come out in seq order, so the batch is FIFO.
func (q *heapQueue) drainMin(dst []*Event) []*Event {
	top := q.h[0]
	t, c := top.Time, top.class
	for len(q.h) > 0 && q.h[0].Time == t && q.h[0].class == c {
		dst = append(dst, heap.Pop(&q.h).(*Event))
	}
	return dst
}

// eventHeap orders by (Time, class, seq).
type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventBefore(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// queueKinds names the two queue implementations the differential
// harnesses and BenchmarkEngineChurn run side by side: the production
// calendar queue and the reference heap.
var queueKinds = []struct {
	name string
	new  func() *Engine
}{
	{"calendar", New},
	{"heap", newHeapEngine},
}
