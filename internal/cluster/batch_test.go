package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBatchedClusterCoalesces drives a burst through one worker with greedy
// batch formation and checks the span plumbing: every completion carries a
// batch id, sizes respect the cap, and the recorder's batch books agree
// with the completions.
func TestBatchedClusterCoalesces(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		MaxBatch:          4,
		BatchDelay:        -1, // greedy: batches fill straight off the queue
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder()
	defer c.Close()

	const n = 12
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.SubmitCtx(context.Background(), Request{Length: 100})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res.Span.Batch == 0 {
			t.Errorf("request %d: no batch id on a batched cluster", i)
		}
		if res.Span.BatchSize < 1 || res.Span.BatchSize > 4 {
			t.Errorf("request %d: batch size %d outside [1, 4]", i, res.Span.BatchSize)
		}
		if res.Span.FormWait < 0 {
			t.Errorf("request %d: negative formation wait %v", i, res.Span.FormWait)
		}
	}
	if got := rec.BatchedRequests(); got != n {
		t.Errorf("recorder batched requests = %d, want %d", got, n)
	}
	// 12 requests through one worker cannot have run as 12 singleton
	// batches: everything queued behind the first execution coalesces.
	if got := rec.MeanBatchSize(0); got <= 1 {
		t.Errorf("recorder mean batch size = %v, want > 1 (no coalescing happened)", got)
	}
}

// TestSequentialSpansCarryNoBatchFields pins the batching-off contract: the
// sequential worker path must leave the batch span fields zero.
func TestSequentialSpansCarryNoBatchFields(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.SubmitCtx(context.Background(), Request{Length: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Span.Batch != 0 || res.Span.BatchSize != 0 || res.Span.FormWait != 0 {
		t.Errorf("sequential span has batch fields set: batch=%d size=%d wait=%v",
			res.Span.Batch, res.Span.BatchSize, res.Span.FormWait)
	}
}

// TestBatchedDrainsBurstFaster is the live-cluster version of the
// simulator's throughput test: draining the same burst through the same
// single worker must finish measurably sooner with batching on, because
// the batch cost is sub-linear in the batch size.
func TestBatchedDrainsBurstFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock throughput comparison")
	}
	p := testProfile(t, []int{512})
	const n = 48
	drain := func(maxBatch int) time.Duration {
		c, err := New(Config{
			Profile:           p,
			InitialAllocation: []int{1},
			Dispatcher:        rsFactory,
			Overhead:          -1,
			TimeScale:         0.5,
			MaxBatch:          maxBatch,
			BatchDelay:        -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Submit(100); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	seq := drain(1)
	bat := drain(8)
	// Batch 8 at the default cost model runs ~1.8x the sequential
	// throughput; require a conservative 1.25x so the 1-CPU CI container's
	// scheduling noise cannot flake the assertion.
	if float64(bat) > 0.8*float64(seq) {
		t.Errorf("batched drain %v not faster than sequential %v (want < 80%%)", bat, seq)
	}
}

// TestBatchFormationCancellationRace is the -race hammer for the batching
// path: half the submitters carry deadlines tight enough to expire while
// their request is queued or inside the collection window, racing the
// per-member pending->running CAS against SubmitCtx's cancellation. The
// books must balance regardless of who wins each race.
func TestBatchFormationCancellationRace(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{2},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		MaxBatch:          8,
		// Default (SLO-aware) window: formation waits, so cancellation has
		// a real window to race.
		BatchDelay: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder()
	defer c.Close()

	const n = 200
	rng := rand.New(rand.NewSource(11))
	timeouts := make([]time.Duration, n)
	lengths := make([]int, n)
	for i := range timeouts {
		if i%2 == 1 {
			timeouts[i] = time.Duration(50+rng.Intn(2000)) * time.Microsecond
		}
		lengths[i] = 1 + rng.Intn(500)
	}
	var (
		wg                   sync.WaitGroup
		mu                   sync.Mutex
		completed, cancelled int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if timeouts[i] > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeouts[i])
				defer cancel()
			}
			_, err := c.SubmitCtx(ctx, Request{Length: lengths[i]})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
			case errors.Is(err, ErrDeadlineExceeded):
				cancelled++
			default:
				t.Errorf("request %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	if completed+cancelled != n {
		t.Errorf("outcomes %d+%d != %d submitted", completed, cancelled, n)
	}
	// Deadline-free submitters must all complete; the 50us..2ms deadlines
	// sit well under one modeled execution, so some cancellations must win.
	if completed < n/2 {
		t.Errorf("completed %d < %d deadline-free submissions", completed, n/2)
	}
	if cancelled == 0 {
		t.Error("no cancellation won the race against batch formation")
	}
	if got, want := rec.Completed(), int64(completed); got != want {
		t.Errorf("recorder completed %d, harness saw %d (double or lost delivery)", got, want)
	}
	if got, want := rec.Cancelled(), int64(cancelled); got != want {
		t.Errorf("recorder cancelled %d, harness saw %d", got, want)
	}
	if bal := rec.Submitted() - rec.Completed() - rec.Cancelled() - rec.Rejected(); bal != 0 {
		t.Errorf("recorder books unbalanced by %d", bal)
	}
}
