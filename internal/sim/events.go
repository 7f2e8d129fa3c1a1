package sim

import (
	"container/heap"
	"time"
)

// eventKind discriminates simulator events.
type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
	evAllocTick
	evScaleTick
	evInstanceReady
	evReplace
	evFailure
)

// event is one entry of the simulation's time-ordered event queue.
type event struct {
	at   time.Duration
	seq  int64 // FIFO tie-break for equal timestamps
	kind eventKind

	req      *Record      // evArrival, evCompletion
	instance *simInstance // evCompletion, evInstanceReady
	from, to int          // evReplace: runtime indexes of the swap
	failure  *Failure     // evFailure
}

// eventHeap is a min-heap ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// timeline wraps the heap with sequence numbering.
type timeline struct {
	h   eventHeap
	seq int64
}

func (t *timeline) push(at time.Duration, kind eventKind, req *Record, in *simInstance) {
	t.seq++
	heap.Push(&t.h, &event{at: at, seq: t.seq, kind: kind, req: req, instance: in})
}

func (t *timeline) pushReplace(at time.Duration, from, to int) {
	t.seq++
	heap.Push(&t.h, &event{at: at, seq: t.seq, kind: evReplace, from: from, to: to})
}

func (t *timeline) pushFailure(at time.Duration, f *Failure) {
	t.seq++
	heap.Push(&t.h, &event{at: at, seq: t.seq, kind: evFailure, failure: f})
}

func (t *timeline) pop() *event {
	if len(t.h) == 0 {
		return nil
	}
	return heap.Pop(&t.h).(*event)
}

func (t *timeline) empty() bool { return len(t.h) == 0 }
