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

// TestSubmitCtxCancelWhileQueued pins the headline cancellation contract:
// a request whose context fires while it is still queued behind a busy
// worker returns ErrDeadlineExceeded promptly and is discarded without
// executing.
func TestSubmitCtxCancelWhileQueued(t *testing.T) {
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
	rec := c.Recorder()
	defer c.Close()

	// Occupy the single worker with a long request, then queue one more.
	blocker, err := submitAsync(c, 512)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.SubmitCtx(ctx, Request{Length: 100})
		errCh <- err
	}()
	// Let the queued submission land behind the blocker, then cancel it.
	time.Sleep(time.Millisecond)
	start := time.Now()
	cancel()
	err = <-errCh
	waited := time.Since(start)

	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, should also match context.Canceled", err)
	}
	// The cancelled request must not have waited for the blocker's ~5ms
	// execution (it returns as soon as the context fires).
	if waited > 50*time.Millisecond {
		t.Errorf("cancellation took %v, want prompt return", waited)
	}
	if got := rec.Cancelled(); got != 1 {
		t.Errorf("cancelled count = %d, want 1", got)
	}
	<-blocker

	// The worker must discard the cancelled job: after the blocker
	// drains, no outstanding work remains.
	deadline := time.Now().Add(time.Second)
	for c.Outstanding() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d after drain, want 0", got)
	}
}

func TestSubmitCtxExpiredDeadline(t *testing.T) {
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

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = c.SubmitCtx(ctx, Request{Length: 100})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, should also match context.DeadlineExceeded", err)
	}
	// An already-expired context never dispatches: no load was recorded.
	if got := c.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d, want 0", got)
	}
}

// TestSubmitCtxSpan checks the lifecycle decomposition of a normal
// completion: the span names the executing instance and its runtime
// level, and the parts are consistent with the total.
func TestSubmitCtxSpan(t *testing.T) {
	p := testProfile(t, []int{128, 512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1, 1},
		Dispatcher:        rsFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder()
	defer c.Close()

	res, err := c.SubmitCtx(context.Background(), Request{Length: 100, Tokenize: 42 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Span
	if s.Length != 100 {
		t.Errorf("span length = %d, want 100", s.Length)
	}
	if s.Tokenize != 42*time.Microsecond {
		t.Errorf("span tokenize = %v, want 42µs", s.Tokenize)
	}
	// On an idle cluster Algorithm 1 takes the ideal level's one instance
	// at the first peek.
	if want := (dispatch.Decision{IdealLevel: 0, Level: 0, Instance: 0, Peeked: 1}); s.Decision != want {
		t.Errorf("span decision = %+v, want %+v", s.Decision, want)
	}
	if s.Exec <= 0 {
		t.Errorf("span exec = %v, want > 0", s.Exec)
	}
	if s.Total < s.Exec {
		t.Errorf("span total %v < exec %v", s.Total, s.Exec)
	}
	if s.Enqueued.IsZero() {
		t.Error("span enqueued time is zero")
	}
	if got := rec.Completed(); got != 1 {
		t.Errorf("completed count = %d, want 1", got)
	}
	if got := rec.Submitted(); got != 1 {
		t.Errorf("submitted count = %d, want 1", got)
	}
}

// TestSubmitCtxRecordsDemotion drives a single-instance level 0 into
// congestion so Algorithm 1 demotes to level 1, and checks the (0,1)
// counter and the span attribution.
func TestSubmitCtxRecordsDemotion(t *testing.T) {
	p := testProfile(t, []int{128, 512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1, 1},
		Dispatcher:        rsFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder()
	defer c.Close()

	// Burst enough length-100 requests to congest the level-0 runtime
	// (capacity 89 at max_length 128 under the 150ms SLO, lambda 0.85, so
	// 76 outstanding reads as congested) without congesting level 1
	// (capacity 30, decayed threshold 0.765). A probe in that window has
	// ideal level 0 but is demoted to level 1. The burst is submitted in
	// microseconds while each job drains in ~1.7ms, so the window is wide;
	// retry with a fresh burst in case a scheduling hiccup drained it.
	sawDemotion := false
	for attempt := 0; attempt < 5 && !sawDemotion; attempt++ {
		var pending []<-chan time.Duration
		for i := 0; i < 85; i++ {
			ch, err := submitAsync(c, 100)
			if err != nil {
				t.Fatal(err)
			}
			pending = append(pending, ch)
		}
		res, err := c.SubmitCtx(context.Background(), Request{Length: 100})
		if err != nil {
			t.Fatal(err)
		}
		if res.Span.Level > res.Span.IdealLevel {
			sawDemotion = true
			// Level 0 is congested, level 1 (instance 1) takes it at the
			// second peek.
			if want := (dispatch.Decision{IdealLevel: 0, Level: 1, Instance: 1, Peeked: 2}); res.Span.Decision != want {
				t.Errorf("demoted span decision = %+v, want %+v", res.Span.Decision, want)
			}
			if res.Span.DemotionHops() != 1 {
				t.Errorf("hops = %d, want 1", res.Span.DemotionHops())
			}
		}
		for _, ch := range pending {
			<-ch
		}
	}
	if !sawDemotion {
		t.Fatal("no demotion observed under saturation")
	}
	if got := rec.Demotions(0, 1); got == 0 {
		t.Error("demotion counter (0,1) = 0, want > 0")
	}
}

// TestSubmitCtxStress races concurrent submissions, cancellations and
// completions (run under -race) and then checks the recorder's books
// balance: every SubmitCtx call is accounted exactly once as completed,
// cancelled or rejected.
func TestSubmitCtxStress(t *testing.T) {
	p := testProfile(t, []int{128, 512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{2, 2},
		Dispatcher:        rsFactory,
		TimeScale:         0.02, // compress ~5ms executions to ~0.1ms
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder()

	const (
		goroutines = 8
		perG       = 60
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				length := 1 + rng.Intn(512)
				if rng.Intn(3) == 0 {
					// A third of the traffic carries a tight deadline
					// that often fires while queued.
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(200))*time.Microsecond)
					res, err := c.SubmitCtx(ctx, Request{Length: length})
					cancel()
					if err == nil && res.Span.Total <= 0 {
						t.Error("completed span has non-positive total")
					}
					if err != nil && !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrCongested) {
						t.Errorf("unexpected error: %v", err)
					}
					continue
				}
				res, err := c.SubmitCtx(context.Background(), Request{Length: length})
				if err != nil {
					if !errors.Is(err, ErrCongested) {
						t.Errorf("unexpected error: %v", err)
					}
					continue
				}
				s := res.Span
				if s.Total <= 0 || s.Exec <= 0 || s.Queue < 0 {
					t.Errorf("incomplete span: total=%v exec=%v queue=%v", s.Total, s.Exec, s.Queue)
				}
				if s.Level < s.IdealLevel {
					t.Errorf("span promoted below ideal level: %d < %d", s.Level, s.IdealLevel)
				}
			}
		}(g)
	}
	wg.Wait()
	c.Close()

	if got := rec.Submitted(); got != goroutines*perG {
		t.Errorf("submitted = %d, want %d", got, goroutines*perG)
	}
	if got := rec.InFlight(); got != 0 {
		t.Errorf("books don't balance: %d in flight (completed=%d cancelled=%d rejected=%d)",
			got, rec.Completed(), rec.Cancelled(), rec.Rejected())
	}
}

// TestSubmitCtxAfterClose maps Close onto the sentinel.
func TestSubmitCtxAfterClose(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	_, err = c.SubmitCtx(context.Background(), Request{Length: 10})
	if !errors.Is(err, ErrClusterClosed) {
		t.Errorf("err = %v, want ErrClusterClosed", err)
	}
}
