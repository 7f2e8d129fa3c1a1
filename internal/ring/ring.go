// Package ring provides the sharded MPSC submit rings of the batched
// ingress path: many producer goroutines enqueue lock-free, one consumer
// goroutine per shard drains in groups and feeds the dispatcher through
// the cluster's group submit, amortizing the per-request handoff (topology
// lock, clock read, scheduler wakeups) across the group.
//
// Layout follows the lock-free idiom the rest of the repo uses
// (obs histogram striping, queue.Level padding): shard count defaults to
// GOMAXPROCS, per-shard capacity is rounded up to a power of two so slot
// indexing is a mask, and the producer and consumer cursors live on their
// own cache lines so enqueues from different cores never false-share with
// the drain cursor.
//
// Each shard is a bounded Vyukov-style sequence ring specialized to a
// single consumer: producers claim a slot with one CAS on the shard's tail
// and publish the value by storing the slot's sequence number; the
// consumer observes published slots in claim order, so each shard is FIFO
// in enqueue order. A full shard rejects the enqueue (the producer spills
// to the next shard, and Enqueue fails only when every shard is full) —
// backpressure is explicit, never blocking.
package ring

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

// slot is one ring entry. seq is the Vyukov sequence: slot i is writable
// when seq == pos (its claim ticket) and readable when seq == pos+1.
type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// pad keeps the hot cursors on private cache lines.
type pad [64]byte

// shard is one MPSC ring. tail is shared by producers (CAS), head is
// owned by the shard's single consumer (atomic so Len and the race
// detector see clean publication).
type shard[T any] struct {
	slots []slot[T]
	mask  uint64

	_    pad
	tail atomic.Uint64
	_    pad
	head atomic.Uint64
	_    pad

	// notify wakes the parked consumer after an enqueue into an idle
	// shard; capacity 1 so a pending wakeup is never lost and producers
	// never block on it.
	notify chan struct{}
}

// Ring is a set of MPSC shards with a round-robin producer cursor.
type Ring[T any] struct {
	shards []shard[T]
	cursor atomic.Uint32
}

// DefaultShardCapacity is the per-shard slot count used when New is given
// a non-positive capacity.
const DefaultShardCapacity = 1024

// New builds a ring with the given shard count (<= 0 defaults to
// GOMAXPROCS) and per-shard capacity rounded up to a power of two (<= 0
// defaults to DefaultShardCapacity).
func New[T any](shards, capacity int) *Ring[T] {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if capacity <= 0 {
		capacity = DefaultShardCapacity
	}
	capacity = 1 << bits.Len(uint(capacity-1)) // round up to a power of two
	if capacity < 2 {
		capacity = 2
	}
	r := &Ring[T]{shards: make([]shard[T], shards)}
	for i := range r.shards {
		s := &r.shards[i]
		s.slots = make([]slot[T], capacity)
		s.mask = uint64(capacity - 1)
		s.notify = make(chan struct{}, 1)
		for j := range s.slots {
			s.slots[j].seq.Store(uint64(j))
		}
	}
	return r
}

// Shards returns the shard count; Drain and Wait address shards by index
// in [0, Shards()).
func (r *Ring[T]) Shards() int { return len(r.shards) }

// Enqueue publishes v to one shard, picked round-robin and spilling to
// the next shard when the pick is full. It returns the shard the value
// landed in, or ok=false when every shard is full (the caller should
// surface backpressure, not spin).
func (r *Ring[T]) Enqueue(v T) (shard int, ok bool) {
	start := int(r.cursor.Add(1))
	n := len(r.shards)
	for i := 0; i < n; i++ {
		k := (start + i) % n
		if r.shards[k].enqueue(v) {
			return k, true
		}
	}
	return 0, false
}

// enqueue claims a slot with one CAS on tail and publishes v. Returns
// false when the shard is full.
func (s *shard[T]) enqueue(v T) bool {
	for {
		pos := s.tail.Load()
		sl := &s.slots[pos&s.mask]
		seq := sl.seq.Load()
		switch {
		case seq == pos:
			if s.tail.CompareAndSwap(pos, pos+1) {
				sl.val = v
				sl.seq.Store(pos + 1)
				// Wake the consumer if it is parked; a full notify
				// channel already carries the wakeup.
				select {
				case s.notify <- struct{}{}:
				default:
				}
				return true
			}
		case seq < pos:
			// The slot one lap behind has not been consumed: full.
			return false
		default:
			// Another producer claimed pos first; reload.
		}
	}
}

// Drain appends up to max published values from the shard to buf in FIFO
// order and returns the extended slice. Only the shard's single consumer
// goroutine may call Drain (and Wait) for a given shard index.
func (r *Ring[T]) Drain(shard int, buf []T, max int) []T {
	s := &r.shards[shard]
	pos := s.head.Load()
	for n := 0; n < max; n++ {
		sl := &s.slots[pos&s.mask]
		if sl.seq.Load() != pos+1 {
			break // next slot not yet published
		}
		buf = append(buf, sl.val)
		var zero T
		sl.val = zero // drop the reference; the ring never pins values
		sl.seq.Store(pos + s.mask + 1)
		pos++
	}
	s.head.Store(pos)
	return buf
}

// Len reports the number of published-but-undrained values in the shard.
// Approximate under concurrent enqueues.
func (r *Ring[T]) Len(shard int) int {
	s := &r.shards[shard]
	return int(s.tail.Load() - s.head.Load())
}

// Wait parks the consumer until the shard has (or likely has) work, or
// stop is closed. It returns false on stop. A true return does not
// guarantee a non-empty drain — wakeups may race with the producer — so
// callers loop Drain/Wait.
func (r *Ring[T]) Wait(shard int, stop <-chan struct{}) bool {
	s := &r.shards[shard]
	if s.tail.Load() != s.head.Load() {
		return true
	}
	select {
	case <-s.notify:
		return true
	case <-stop:
		return false
	}
}
