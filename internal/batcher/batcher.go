// Package batcher implements the Triton-style dynamic batch former the
// live cluster's workers use to realize the batched service rate the
// Runtime Scheduler plans for: the allocation program's capacity M_i and
// latency curve L_i(b) (paper Eqs. 1-7) are batch-based, so executing
// requests strictly one at a time leaves the planned throughput on the
// table. A Former coalesces queued same-runtime requests into batches of
// up to MaxSize under a bounded collection window, and the worker then
// executes the whole batch as one emulated kernel (Runtime.BatchCostOf).
//
// The window policy mirrors Triton's max_queue_delay with an SLO-aware
// bound: collection never waits longer than MaxDelay, and never past the
// slack any already-collected member's deadline leaves. A member that
// arrives with no slack left ends collection immediately — batching must
// amortize kernel cost, not manufacture deadline misses.
//
// The Former is deliberately oblivious to job lifecycle (cancellation,
// crash requeueing): it only decides *grouping*. The worker re-checks
// each member's state after formation, which is what makes per-member
// cancellation and batch-level crash semantics composable with any
// grouping decision the Former takes.
package batcher

import "time"

// Policy bounds one Former's batches.
type Policy struct {
	// MaxSize is B_i, the largest batch formed; values below 1 degrade to
	// singleton batches (no coalescing beyond the greedy first item).
	MaxSize int
	// MaxDelay bounds the collection window: once the first member is in
	// hand, the Former waits at most this long for followers. Zero (or
	// negative) disables waiting entirely — the batch is whatever is
	// already queued, the lowest-latency policy.
	MaxDelay time.Duration
}

// Former coalesces items received from Source into bounded batches.
// A Former is owned by a single consumer goroutine; only the channels may
// be touched concurrently.
type Former[T any] struct {
	// Source delivers the items to coalesce. A closed Source ends the
	// Former: Next returns ok=false once the channel is drained.
	Source <-chan T
	// Policy bounds batch size and collection window.
	Policy Policy
	// Deadline, when non-nil, reports the latest instant an item can still
	// start executing (its SLO slack). The collection window never extends
	// past the earliest deadline among collected members.
	Deadline func(T) (time.Time, bool)
	// Window, when non-nil, reports a per-item cap on the collection
	// window (SLO-class policy: interactive members shrink the window,
	// batch-class members tolerate the full MaxDelay). The wait never
	// extends past any member's arrival plus its window. Items without an
	// opinion return ok=false and inherit MaxDelay.
	Window func(T) (time.Duration, bool)
	// Interrupt, when non-nil, aborts the collection wait when it becomes
	// readable (a crashed worker must stop forming and start draining).
	// Items already collected are still returned.
	Interrupt <-chan struct{}
	// Wake, when non-nil, is told the length of every window wait as its
	// timer is armed, so the owner can make sure the runtime wakes on
	// time (the cluster's workers arm a timerfd alarm for the instant).
	Wake func(time.Duration)

	// timer is the reusable window timer (allocated on first wait).
	timer *time.Timer
	// firstAt is when the last batch's first member was received.
	firstAt time.Time
}

// Next blocks for the first item, then collects followers into buf (which
// it appends to and returns) until the batch is full, the window closes,
// Source runs dry under a zero MaxDelay, or Interrupt fires. ok is false
// when Source is closed and drained — the consumer should stop.
//
// Callers pass a reusable buffer (batch[:0]) so steady-state formation
// allocates nothing.
func (f *Former[T]) Next(buf []T) (batch []T, ok bool) {
	first, open := <-f.Source
	if !open {
		return buf, false
	}
	f.firstAt = time.Now()
	batch = append(buf, first)
	max := f.Policy.MaxSize
	if max < 1 {
		max = 1
	}
	// Greedy phase: take everything already queued, no waiting. This alone
	// captures most of the batching win under load — a backlogged worker
	// always finds followers in its channel.
	for len(batch) < max {
		select {
		case it, open := <-f.Source:
			if !open {
				// Deliver what we have; the next call observes the close.
				return batch, true
			}
			batch = append(batch, it)
		default:
			return f.wait(batch, max)
		}
	}
	return batch, true
}

// FormedIn returns how long the last batch took to form: the time from
// its first member's arrival at the Former to Next's return.
func (f *Former[T]) FormedIn() time.Duration { return time.Since(f.firstAt) }

// Poll collects up to max already-queued items into buf without blocking —
// the iteration-level admission path. A continuous-batching worker with
// sequences mid-decode calls Poll once per iteration to refill freed slots:
// it must never stall the decode of sequences already running, so there is
// no collection window here (the running batch *is* the window). Items
// arrive in Source order, preserving FIFO within the runtime level.
//
// open is false once Source is closed and drained; items collected on the
// closing call are still returned and must be processed.
func (f *Former[T]) Poll(buf []T, max int) (batch []T, open bool) {
	batch = buf
	for len(batch) < max {
		select {
		case it, ok := <-f.Source:
			if !ok {
				return batch, false
			}
			batch = append(batch, it)
		default:
			return batch, true
		}
	}
	return batch, true
}

// wait is the window phase: the queue ran dry before the batch filled, so
// wait out the remaining collection window for followers.
func (f *Former[T]) wait(batch []T, max int) ([]T, bool) {
	if f.Policy.MaxDelay <= 0 {
		return batch, true
	}
	now := time.Now()
	limit := now.Add(f.Policy.MaxDelay)
	limit = f.clampToDeadlines(limit, batch)
	// Members collected so far anchor their window caps at the batch's
	// first arrival: that is how long the batch has already been open.
	limit = f.clampToWindows(limit, batch, f.firstAt)
	for len(batch) < max {
		remain := time.Until(limit)
		if remain <= 0 {
			return batch, true
		}
		if f.timer == nil {
			f.timer = time.NewTimer(remain)
		} else {
			f.timer.Reset(remain)
		}
		if f.Wake != nil {
			f.Wake(remain)
		}
		select {
		case it, open := <-f.Source:
			f.stopTimer()
			if !open {
				return batch, true
			}
			batch = append(batch, it)
			// A new member with less slack shrinks the window for everyone:
			// the batch starts when its most urgent member must.
			limit = f.clampToDeadlines(limit, batch[len(batch)-1:])
			limit = f.clampToWindows(limit, batch[len(batch)-1:], time.Now())
		case <-f.timer.C:
			return batch, true
		case <-f.Interrupt:
			f.stopTimer()
			return batch, true
		}
	}
	return batch, true
}

// clampToDeadlines lowers limit to the earliest deadline among items.
func (f *Former[T]) clampToDeadlines(limit time.Time, items []T) time.Time {
	if f.Deadline == nil {
		return limit
	}
	for _, it := range items {
		if d, ok := f.Deadline(it); ok && d.Before(limit) {
			limit = d
		}
	}
	return limit
}

// clampToWindows lowers limit to the earliest per-item window expiry
// among items, each anchored at the given arrival instant.
func (f *Former[T]) clampToWindows(limit time.Time, items []T, at time.Time) time.Time {
	if f.Window == nil {
		return limit
	}
	for _, it := range items {
		if w, ok := f.Window(it); ok {
			if exp := at.Add(w); exp.Before(limit) {
				limit = exp
			}
		}
	}
	return limit
}

func (f *Former[T]) stopTimer() {
	if !f.timer.Stop() {
		select {
		case <-f.timer.C:
		default:
		}
	}
}
