// Weighted fair ordering across tenants for the cluster's dispatch path.
//
// Fair is a start-time fair queueing (stride) scheduler: each tenant is a
// flow holding a FIFO of pending items, and every item carries a token
// cost. A flow's pass advances by cost/weight per item served, and Pop
// always serves the flow with the smallest pass — so over any backlogged
// interval each tenant's share of dispatched token-time converges to its
// weight, and a tenant with a deep backlog cannot starve the others: its
// pass races ahead and the scheduler round-robins the rest in.
//
// Flows that go idle and return re-enter at the current virtual time
// (max(own pass, vtime)), the standard SFQ rule that prevents an idle
// tenant from banking credit and then monopolizing the queue.
//
// No product path uses Fair: the cluster places admitted tenant jobs
// inline, in arrival order. Only the benchmark's queue.fair_push_pop_ns
// leaf times it; ROADMAP item 12 decides whether it stays.

package queue

import (
	"container/heap"
	"sync"
)

type fairItem[T any] struct {
	v      T
	stride float64 // cost/weight, applied to the flow's pass when served
}

type fairFlow[T any] struct {
	key   string
	pass  float64
	items []fairItem[T]
	head  int
	hix   int // index in the active heap, -1 when idle
}

func (f *fairFlow[T]) size() int { return len(f.items) - f.head }

// Fair is the tenant-fair pending queue. The zero value is not usable;
// call NewFair.
type Fair[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	flows  map[string]*fairFlow[T]
	active fairHeap[T]
	vtime  float64
	size   int
	closed bool
}

// NewFair returns an empty fair queue.
func NewFair[T any]() *Fair[T] {
	f := &Fair[T]{flows: make(map[string]*fairFlow[T])}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Push enqueues an item for the given flow. weight must be positive (it
// is clamped to a small floor); cost is the item's share currency —
// tokens here. Returns false when the queue is closed.
func (q *Fair[T]) Push(key string, weight, cost float64, v T) bool {
	if weight <= 0 {
		weight = 1e-3
	}
	if cost < 1 {
		cost = 1
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	f := q.flows[key]
	if f == nil {
		f = &fairFlow[T]{key: key, hix: -1}
		q.flows[key] = f
	}
	f.items = append(f.items, fairItem[T]{v: v, stride: cost / weight})
	if f.hix < 0 {
		if f.pass < q.vtime {
			f.pass = q.vtime
		}
		heap.Push(&q.active, f)
	}
	q.size++
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// Pop blocks for the next item in fair order. ok is false once the queue
// is closed *and* drained — pending items are still delivered after
// Close so the consumer can fail or dispatch them.
func (q *Fair[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			return v, false
		}
		q.cond.Wait()
	}
	f := q.active[0]
	it := f.items[f.head]
	f.head++
	q.size--
	q.vtime = f.pass
	f.pass += it.stride
	if f.size() == 0 {
		heap.Pop(&q.active)
		f.hix = -1
		// Release delivered items; keep the flow record (and its pass) so a
		// returning flow re-enters at max(pass, vtime).
		f.items = f.items[:0]
		f.head = 0
	} else {
		heap.Fix(&q.active, 0)
	}
	return it.v, true
}

// Len reports queued items across all flows.
func (q *Fair[T]) Len() int {
	q.mu.Lock()
	n := q.size
	q.mu.Unlock()
	return n
}

// Close stops accepting pushes and wakes blocked Pops. Items already
// queued remain poppable; Pop returns ok=false once drained.
func (q *Fair[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// fairHeap orders active flows by ascending pass (ties broken by key for
// determinism).
type fairHeap[T any] []*fairFlow[T]

func (h fairHeap[T]) Len() int { return len(h) }
func (h fairHeap[T]) Less(i, j int) bool {
	if h[i].pass != h[j].pass {
		return h[i].pass < h[j].pass
	}
	return h[i].key < h[j].key
}
func (h fairHeap[T]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hix, h[j].hix = i, j
}
func (h *fairHeap[T]) Push(x any) {
	f := x.(*fairFlow[T])
	f.hix = len(*h)
	*h = append(*h, f)
}
func (h *fairHeap[T]) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	f.hix = -1
	*h = old[:n-1]
	return f
}
