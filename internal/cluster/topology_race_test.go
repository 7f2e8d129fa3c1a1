package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"arlo/internal/dispatch"
)

// The tests in this file race topology mutations (RemoveInstance,
// Replace) against SubmitCtx calls whose contexts fire mid-flight. The
// dangerous window is a job queued on a worker whose channel is being
// closed for graceful drain while the client's cancellation CAS runs:
// exactly one side must win, the books must balance, and no error
// outside the typed taxonomy may escape. Run under -race.

// raceOutcome classifies one SubmitCtx result for the books check.
func raceOutcome(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, ErrDeadlineExceeded),
		errors.Is(err, ErrCongested),
		errors.Is(err, ErrClusterClosed),
		errors.Is(err, dispatch.ErrNoInstances),
		errors.Is(err, dispatch.ErrTooLong):
	default:
		t.Errorf("unexpected error under topology churn: %v", err)
	}
}

// TestRemoveInstanceRacesCancellation churns a runtime's population up
// and down while cancellation-heavy traffic flows, then audits that
// every submission resolved exactly once.
func TestRemoveInstanceRacesCancellation(t *testing.T) {
	p := testProfile(t, []int{128, 512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{2, 2},
		Dispatcher:        rsFactory,
		TimeScale:         0.02,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder()

	const (
		submitters = 6
		perG       = 50
		churns     = 40
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				length := 1 + rng.Intn(512)
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(2) == 0 {
					// Half the traffic is cancelled at a random point in
					// its queue-or-execute window.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				_, err := c.SubmitCtx(ctx, Request{Length: length})
				cancel()
				raceOutcome(t, err)
			}
		}(g)
	}
	// The churner keeps the topology in motion: remove from whichever
	// runtime still has an instance, add one back, repeat. Removal uses
	// the graceful-drain path (close of the worker channel), which is
	// exactly what must not collide with a cancellation CAS.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < churns; i++ {
			rt := rng.Intn(2)
			if _, err := c.RemoveInstance(rt); err == nil {
				if _, err := c.AddInstance(rt); err != nil {
					t.Errorf("add back to runtime %d: %v", rt, err)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()
	c.Close()

	submitted := rec.Submitted()
	if want := int64(submitters * perG); submitted != want {
		t.Errorf("submitted = %d, want %d", submitted, want)
	}
	if bal := submitted - rec.Completed() - rec.Cancelled() - rec.Rejected(); bal != 0 {
		t.Errorf("books unbalanced by %d: completed=%d cancelled=%d rejected=%d",
			bal, rec.Completed(), rec.Cancelled(), rec.Rejected())
	}
}

// TestReplaceRacesCancellation drives Replace back and forth between the
// two runtimes under the same cancellation-heavy load. Replace holds the
// exclusive topology lock across a remove+add pair, so submissions also
// exercise the lock hand-off; the invariant is identical: exact-once
// resolution and balanced books.
func TestReplaceRacesCancellation(t *testing.T) {
	p := testProfile(t, []int{128, 512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{2, 2},
		Dispatcher:        rsFactory,
		TimeScale:         0.02,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder()

	const (
		submitters = 6
		perG       = 50
		swaps      = 30
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perG; i++ {
				// Short lengths keep level 0 a candidate, so traffic always
				// contends with the runtime being drained by Replace.
				length := 1 + rng.Intn(128)
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(50+rng.Intn(400))*time.Microsecond)
				_, err := c.SubmitCtx(ctx, Request{Length: length})
				cancel()
				raceOutcome(t, err)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		dir := 0
		for i := 0; i < swaps; i++ {
			if _, err := c.Replace(dir, 1-dir); err == nil {
				dir = 1 - dir
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()
	wg.Wait()

	// Total capacity is conserved across every swap.
	alloc := c.Allocation()
	if alloc[0]+alloc[1] != 4 {
		t.Errorf("allocation = %v, want 4 instances total", alloc)
	}
	c.Close()

	submitted := rec.Submitted()
	if want := int64(submitters * perG); submitted != want {
		t.Errorf("submitted = %d, want %d", submitted, want)
	}
	if bal := submitted - rec.Completed() - rec.Cancelled() - rec.Rejected(); bal != 0 {
		t.Errorf("books unbalanced by %d: completed=%d cancelled=%d rejected=%d",
			bal, rec.Completed(), rec.Cancelled(), rec.Rejected())
	}
}
