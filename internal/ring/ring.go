// Package ring provides the sharded MPSC submit rings of the batched
// ingress path: many producer goroutines enqueue lock-free, and whoever
// holds a shard's drain flag drains it in groups and feeds the dispatcher
// through the cluster's group submit, amortizing the per-request handoff
// (topology lock, clock read) across the group. The ring starts no
// goroutine: a producer that finds the flag free drains the shard itself,
// and one that finds it taken leaves its value to the holder.
//
// Layout follows the lock-free idiom the rest of the repo uses
// (obs histogram striping, queue.Level padding): shard count defaults to
// GOMAXPROCS, per-shard capacity is rounded up to a power of two so slot
// indexing is a mask, and the producer and consumer cursors live on their
// own cache lines so enqueues from different cores never false-share with
// the drain cursor.
//
// Each shard is a bounded Vyukov-style sequence ring specialized to a
// single consumer at a time: producers claim a slot with one CAS on the
// shard's tail and publish the value by storing the slot's sequence
// number; the drain flag's holder observes published slots in claim order,
// so each shard is FIFO in enqueue order. A full shard rejects the enqueue
// (the producer spills to the next shard, and Enqueue fails only when every
// shard is full) — backpressure is explicit, never blocking.
//
// Release is what keeps a value from stranding: it drops the flag and then
// reports whether the shard's next slot is published. A producer that lost
// the flag published before it tried, so the holder's release happens
// after that publish and sees it, and the holder tries the flag again.
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
// owned by the holder of draining (atomic so Release and the race detector
// see clean publication).
type shard[T any] struct {
	slots []slot[T]
	mask  uint64

	_    pad
	tail atomic.Uint64
	_    pad
	head atomic.Uint64
	_    pad

	// draining is the drain flag: its holder is the shard's one consumer.
	draining atomic.Bool
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
		for j := range s.slots {
			s.slots[j].seq.Store(uint64(j))
		}
	}
	return r
}

// Shards returns the shard count; TryAcquire, Release and Drain address
// shards by index in [0, Shards()).
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

// TryAcquire takes the shard's drain flag and reports whether it did; it
// fails while another goroutine holds it.
func (r *Ring[T]) TryAcquire(shard int) bool {
	return r.shards[shard].draining.CompareAndSwap(false, true)
}

// Release drops the shard's drain flag and then reports whether the
// shard's next slot is already published: a value whose producer found
// the flag taken and left it to the holder. On true the caller tries
// TryAcquire again; on false any value still to come has a producer that
// has not yet published it, and that producer tries the flag itself.
func (r *Ring[T]) Release(shard int) bool {
	s := &r.shards[shard]
	s.draining.Store(false)
	pos := s.head.Load()
	return s.slots[pos&s.mask].seq.Load() == pos+1
}

// Drain appends up to max published values from the shard to buf in FIFO
// order and returns the extended slice. One goroutine at a time may
// drain a shard: where several might, the one holding its drain flag.
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
