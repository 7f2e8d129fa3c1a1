// Package queue provides the scheduling data structures of Arlo's Request
// Scheduler (paper section 3.4, Fig. 5): a per-runtime priority queue of
// instances keyed by outstanding load, and the multi-level queue that
// stacks one such priority queue per runtime in increasing max_length
// order. The instance with the least ongoing load always sits at the head
// of its level.
//
// # Concurrency model
//
// The multi-level queue is safe for concurrent use and synchronization is
// striped per level: each Level carries its own mutex, so dispatches
// against different runtimes never contend. Outstanding counts are
// atomics, which makes Congestion() reads lock-free and lets completions
// avoid blocking on a busy level: OnComplete decrements atomically and
// only repairs the heap if the level lock is immediately available,
// otherwise it marks the level dirty and the next Front() re-heapifies
// (the lazy fix-up trade-off: a completion may briefly leave a stale heap
// position, never a stale count).
//
// Lock order: topology lock (MultiLevel.topo) before any level lock, and
// level locks in ascending level index. No method of this package holds
// two level locks at once, so callers walking candidate levels (the
// Algorithm 1 peek loop) are deadlock-free by construction.
package queue

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Sentinel errors for construction and topology changes, matched with
// errors.Is; the wrapped messages carry the offending values.
var (
	// ErrNoLevels: a multi-level queue needs at least one runtime level.
	ErrNoLevels = errors.New("queue: need at least one runtime level")
	// ErrLevelOrder: runtime max_lengths must be strictly increasing.
	ErrLevelOrder = errors.New("queue: max_lengths must be strictly increasing")
	// ErrRuntimeRange: an instance names a runtime level that does not
	// exist.
	ErrRuntimeRange = errors.New("queue: runtime index out of range")
	// ErrDuplicateInstance: an instance ID is already registered.
	ErrDuplicateInstance = errors.New("queue: duplicate instance ID")
)

// Instance is the scheduler-side view of one deployed runtime instance.
// Instances must not be copied after first use (the outstanding counter
// is an atomic); handle them by pointer.
type Instance struct {
	// ID is unique across the cluster.
	ID int
	// Runtime is the index of the runtime this instance serves (sorted by
	// increasing max_length).
	Runtime int
	// MaxCapacity is M_i: the largest queue the instance can drain within
	// the SLO.
	MaxCapacity int

	// outstanding counts dispatched-but-not-completed requests. Atomic so
	// congestion reads and completion decrements never need a level lock.
	outstanding atomic.Int64

	heapIndex int // position in its level's heap; -1 when detached. Guarded by the level's mutex.

	// Pad past the 48-byte size class so consecutively allocated
	// instances never share a cache line: the outstanding counter above
	// is written from every core on every dispatch and completion, and
	// false sharing between neighbouring instances flattens the parallel
	// dispatch path's scaling.
	_ [24]byte
}

// NewInstance constructs a detached instance with a seeded outstanding
// count — the literal-free way to build test and experiment fixtures now
// that the counter is atomic.
func NewInstance(id, runtime, outstanding, maxCapacity int) *Instance {
	in := &Instance{ID: id, Runtime: runtime, MaxCapacity: maxCapacity}
	in.outstanding.Store(int64(outstanding))
	return in
}

// Outstanding returns the dispatched-but-not-completed request count.
// It is a lock-free atomic read.
func (in *Instance) Outstanding() int { return int(in.outstanding.Load()) }

// SetOutstanding overwrites the outstanding count (test and experiment
// seeding; live accounting goes through OnDispatch/OnComplete). The
// caller must restore heap order via Level.Update when the instance is
// attached to a level.
func (in *Instance) SetOutstanding(n int) { in.outstanding.Store(int64(n)) }

// Congestion returns the instance's congestion level P = outstanding /
// capacity used by Algorithm 1 (lines 7-9). Lock-free.
func (in *Instance) Congestion() float64 {
	if in.MaxCapacity <= 0 {
		return 1
	}
	return float64(in.outstanding.Load()) / float64(in.MaxCapacity)
}

// DefaultRequeueBudget is how many times one request displaced by instance
// failures (or congested during a failure transient) is re-dispatched
// before it fails as unserviceable: by the live cluster per request, and
// by the router per shard hop. It is sized to survive a couple of
// back-to-back crashes plus the congestion retries of the recovery window
// without ever allowing livelock.
const DefaultRequeueBudget = 8

// PickVictim returns the instance a failure of runtime rtIdx crashes (any
// runtime when rtIdx is -1), or nil when no instance matches. The
// simulator and the live cluster share this one failure rule, so the two
// failure models cannot drift apart. The rule has three steps:
//
//  1. Victim selection (this function): the most loaded instance, ties
//     broken toward the smaller ID. It is the worst case the scheduler
//     must absorb, because it strands the most queued work.
//  2. Demotion through the normal dispatch path: every request the crash
//     displaces (queued or in flight; in-flight work restarts from
//     scratch) re-enters through the active dispatch policy with no
//     special placement. Under Algorithm 1, displaced work from a dead
//     small-runtime instance degrades into larger runtimes exactly the way
//     congestion-demoted requests do.
//  3. Bounded displacement: the live cluster fails a request with a typed
//     unserviceable error after DefaultRequeueBudget displacements, and
//     the simulator's event loop is finite by construction.
//
// The paper motivates the Request Scheduler's dynamics-awareness with
// "idiosyncratic factors such as failures and bugs" (section 1): a crash
// unbalances load faster than the Runtime Scheduler can react. Outstanding
// counts are read atomically, so the caller needs only a consistent
// snapshot of the instance set.
func PickVictim(insts []*Instance, rtIdx int) *Instance {
	var worst *Instance
	for _, in := range insts {
		if rtIdx >= 0 && in.Runtime != rtIdx {
			continue
		}
		if worst == nil || in.Outstanding() > worst.Outstanding() ||
			(in.Outstanding() == worst.Outstanding() && in.ID < worst.ID) {
			worst = in
		}
	}
	return worst
}

// instanceHeap is a min-heap of instances ordered by outstanding load,
// breaking ties by ID for determinism.
type instanceHeap []*Instance

func (h instanceHeap) Len() int { return len(h) }
func (h instanceHeap) Less(i, j int) bool {
	oi, oj := h[i].outstanding.Load(), h[j].outstanding.Load()
	if oi != oj {
		return oi < oj
	}
	return h[i].ID < h[j].ID
}
func (h instanceHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}
func (h *instanceHeap) Push(x any) {
	in := x.(*Instance)
	in.heapIndex = len(*h)
	*h = append(*h, in)
}
func (h *instanceHeap) Pop() any {
	old := *h
	n := len(old)
	in := old[n-1]
	old[n-1] = nil
	in.heapIndex = -1
	*h = old[:n-1]
	return in
}

// Level is the priority queue of one runtime's instances. It carries its
// own mutex — one stripe of the multi-level queue's lock striping — and
// must not be copied after first use.
type Level struct {
	mu sync.Mutex
	h  instanceHeap
	// dirty records that an outstanding count changed without a heap
	// fix-up (a completion that found the lock busy); the next Front()
	// re-heapifies. Separate from mu so completions can set it lock-free.
	dirty atomic.Bool
	// front caches h[0] (nil when empty), refreshed under mu after every
	// heap mutation, so the Algorithm 1 peek walk reads level heads
	// without taking any stripe lock.
	front atomic.Pointer[Instance]

	// Levels live contiguously in MultiLevel.levels; pad so two stripes'
	// mutexes and front caches never share a cache line.
	_ [64]byte
}

// refreshFrontLocked re-caches the heap head; caller holds l.mu.
func (l *Level) refreshFrontLocked() {
	if len(l.h) == 0 {
		l.front.Store(nil)
		return
	}
	l.front.Store(l.h[0])
}

// Len returns the number of instances at this level.
func (l *Level) Len() int {
	l.mu.Lock()
	n := len(l.h)
	l.mu.Unlock()
	return n
}

// Front returns the least-loaded instance, or nil when the level is
// empty. With no lazy fix-up pending this is a lock-free atomic read of
// the cached head; a pending fix-up is applied first, so the head is the
// minimum by (outstanding, ID) as of this call.
func (l *Level) Front() *Instance {
	if !l.dirty.Load() {
		return l.front.Load()
	}
	l.mu.Lock()
	if l.dirty.Swap(false) {
		heap.Init(&l.h)
		l.refreshFrontLocked()
	}
	front := l.front.Load()
	l.mu.Unlock()
	return front
}

// Add inserts an instance into the level.
func (l *Level) Add(in *Instance) {
	l.mu.Lock()
	heap.Push(&l.h, in)
	l.refreshFrontLocked()
	l.mu.Unlock()
}

// Remove detaches an instance from the level. It reports whether the
// instance was present.
func (l *Level) Remove(in *Instance) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dirty.Swap(false) {
		heap.Init(&l.h)
	}
	ok := in.heapIndex >= 0 && in.heapIndex < len(l.h) && l.h[in.heapIndex] == in
	if ok {
		heap.Remove(&l.h, in.heapIndex)
	}
	l.refreshFrontLocked()
	return ok
}

// Update restores heap order after an instance's outstanding count
// changed. With a lazy fix-up pending the per-entry repair is skipped:
// the whole level re-heapifies on the next Front anyway.
func (l *Level) Update(in *Instance) {
	l.mu.Lock()
	l.fixLocked(in)
	l.mu.Unlock()
}

// fixLocked repairs in's heap position; caller holds l.mu.
func (l *Level) fixLocked(in *Instance) {
	if l.dirty.Load() {
		return // the next Front() re-heapifies the whole level
	}
	if in.heapIndex >= 0 && in.heapIndex < len(l.h) && l.h[in.heapIndex] == in {
		heap.Fix(&l.h, in.heapIndex)
		l.refreshFrontLocked()
	}
}

// Depth returns the level's queue depth: the sum of outstanding requests
// across its instances — the per-level gauge of the observability plane.
func (l *Level) Depth() int {
	l.mu.Lock()
	d := 0
	for _, in := range l.h {
		d += int(in.outstanding.Load())
	}
	l.mu.Unlock()
	return d
}

// AppendInstances appends a snapshot of the level's instances, in
// unspecified order, to dst and returns the extended slice; hot paths
// reuse a scratch buffer for dst.
func (l *Level) AppendInstances(dst []*Instance) []*Instance {
	l.mu.Lock()
	dst = append(dst, l.h...)
	l.mu.Unlock()
	return dst
}

// MultiLevel is the Request Scheduler's multi-level queue: level k holds
// the instances of runtime k, with runtimes sorted by increasing
// max_length. It is safe for concurrent use; see the package comment for
// the locking design.
type MultiLevel struct {
	levels     []Level
	maxLengths []int // per level, increasing; immutable after construction
	levelIdx   []int // [0, 1, ..., L-1]; CandidateLevels returns suffixes of it

	// topo guards instance membership (byID). Dispatch and completion
	// never take it; only topology changes (Add/Remove) and enumeration
	// do.
	topo sync.RWMutex
	byID map[int]*Instance
}

// NewMultiLevel creates a multi-level queue for runtimes with the given
// max_lengths, which must be strictly increasing.
func NewMultiLevel(maxLengths []int) (*MultiLevel, error) {
	if len(maxLengths) == 0 {
		return nil, ErrNoLevels
	}
	for i := 1; i < len(maxLengths); i++ {
		if maxLengths[i] <= maxLengths[i-1] {
			return nil, fmt.Errorf("%w: got %v", ErrLevelOrder, maxLengths)
		}
	}
	ls := make([]int, len(maxLengths))
	copy(ls, maxLengths)
	idx := make([]int, len(maxLengths))
	for i := range idx {
		idx[i] = i
	}
	return &MultiLevel{
		levels:     make([]Level, len(maxLengths)),
		maxLengths: ls,
		levelIdx:   idx,
		byID:       make(map[int]*Instance),
	}, nil
}

// MaxLength returns the max_length of runtime level k.
func (m *MultiLevel) MaxLength(k int) int { return m.maxLengths[k] }

// Level returns level k.
func (m *MultiLevel) Level(k int) *Level { return &m.levels[k] }

// Add registers an instance under its runtime's level. It returns an error
// for an out-of-range runtime index or duplicate instance ID.
func (m *MultiLevel) Add(in *Instance) error {
	if in.Runtime < 0 || in.Runtime >= len(m.levels) {
		return fmt.Errorf("%w: instance %d has runtime %d outside [0, %d)", ErrRuntimeRange, in.ID, in.Runtime, len(m.levels))
	}
	m.topo.Lock()
	defer m.topo.Unlock()
	if _, dup := m.byID[in.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateInstance, in.ID)
	}
	m.levels[in.Runtime].Add(in)
	m.byID[in.ID] = in
	return nil
}

// Remove detaches an instance by ID, returning it (nil if unknown).
func (m *MultiLevel) Remove(id int) *Instance {
	m.topo.Lock()
	defer m.topo.Unlock()
	in, ok := m.byID[id]
	if !ok {
		return nil
	}
	m.levels[in.Runtime].Remove(in)
	delete(m.byID, id)
	return in
}

// Size returns the total number of registered instances. Only tests call
// it: they read the registry's conservation through it.
func (m *MultiLevel) Size() int {
	m.topo.RLock()
	n := len(m.byID)
	m.topo.RUnlock()
	return n
}

// CandidateLevels returns the indexes of all runtime levels whose
// max_length can accommodate a request of the given length, in increasing
// max_length order (the candidate set Q_e of Algorithm 1, line 2). The
// result is empty when the request exceeds every runtime.
//
// Because max_lengths are increasing the candidate set is always a level
// suffix, so the returned slice is a shared read-only view — callers must
// not modify it. No allocation on the dispatch hot path.
func (m *MultiLevel) CandidateLevels(length int) []int {
	// Binary search for the first level with maxLengths[k] >= length.
	lo, hi := 0, len(m.maxLengths)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.maxLengths[mid] < length {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return m.levelIdx[lo:]
}

// OnDispatch records a dispatch to the instance: its outstanding count is
// incremented and its level's heap order restored (Algorithm 1, line 22).
// Only the instance's level stripe is locked.
func (m *MultiLevel) OnDispatch(in *Instance) {
	in.outstanding.Add(1)
	m.levels[in.Runtime].Update(in)
}

// OnComplete records a request completion on the instance. The decrement
// is atomic and never blocks on the level lock: if the lock is free the
// heap position is repaired inline (so single-threaded behavior matches
// the eager implementation exactly); under contention the level is marked
// dirty and the next Front() re-heapifies.
func (m *MultiLevel) OnComplete(in *Instance) {
	// Clamped atomic decrement: never below zero.
	for {
		o := in.outstanding.Load()
		if o <= 0 {
			return
		}
		if in.outstanding.CompareAndSwap(o, o-1) {
			break
		}
	}
	l := &m.levels[in.Runtime]
	if l.mu.TryLock() {
		l.fixLocked(in)
		l.mu.Unlock()
		return
	}
	// Lock busy: defer the fix-up. Store after the decrement so a
	// concurrent Front() that already swapped dirty off re-observes it.
	l.dirty.Store(true)
}

// Instances returns every registered instance in unspecified order.
func (m *MultiLevel) Instances() []*Instance {
	m.topo.RLock()
	out := make([]*Instance, 0, len(m.byID))
	for _, in := range m.byID {
		out = append(out, in)
	}
	m.topo.RUnlock()
	return out
}

// TotalOutstanding sums outstanding requests across all instances.
func (m *MultiLevel) TotalOutstanding() int {
	m.topo.RLock()
	total := 0
	for _, in := range m.byID {
		total += int(in.outstanding.Load())
	}
	m.topo.RUnlock()
	return total
}
