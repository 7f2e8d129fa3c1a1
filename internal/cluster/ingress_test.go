package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"arlo/internal/obs"
)

func ingressCluster(t *testing.T, rec *obs.Recorder, alloc []int, lengths []int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Profile:           testProfile(t, lengths),
		InitialAllocation: alloc,
		Dispatcher:        rsFactory,
		Overhead:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.SetObserver(rec)
	return c
}

// TestIngressSubmitCtx pins the drop-in contract: a request through the
// ring completes like one through Cluster.SubmitCtx, and its span gains
// the ingress_wait stage.
func TestIngressSubmitCtx(t *testing.T) {
	rec := obs.NewRecorder(1)
	c := ingressCluster(t, rec, []int{2}, []int{512})
	defer c.Close()
	g := NewIngress(c, IngressConfig{})
	defer g.Close()

	res, err := g.SubmitCtx(context.Background(), Request{Length: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Errorf("latency = %v, want > 0", res.Latency)
	}
	if res.Span.IngressWait <= 0 {
		t.Errorf("span ingress_wait = %v, want > 0", res.Span.IngressWait)
	}
	if res.Span.Exec <= 0 {
		t.Errorf("span exec = %v, want > 0", res.Span.Exec)
	}
	if got := rec.Completed(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

// TestIngressCancelWhileRinged drives a job through the ring while its
// context is already on the way out: whichever side wins the CAS, the
// submitter gets a typed error or a result, never a hang, and the books
// balance.
func TestIngressCancelWhileRinged(t *testing.T) {
	rec := obs.NewRecorder(1)
	c := ingressCluster(t, rec, []int{1}, []int{512})
	defer c.Close()
	g := NewIngress(c, IngressConfig{Shards: 1})
	defer g.Close()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				// Cancel at staggered points: some while ringed, some while
				// queued at the worker, some after completion.
				time.Sleep(time.Duration(i%8) * 100 * time.Microsecond)
				cancel()
				close(done)
			}()
			res, err := g.SubmitCtx(ctx, Request{Length: 100})
			<-done
			if err != nil && !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrCongested) {
				t.Errorf("unexpected error: %v", err)
			}
			if err == nil && res.Latency <= 0 {
				t.Errorf("nil error but latency %v", res.Latency)
			}
		}(i)
	}
	wg.Wait()

	// Conservation at the cluster boundary: every submission resolved
	// exactly one way.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if rec.Submitted() == rec.Completed()+rec.Cancelled()+rec.Rejected() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s, c2, x, r := rec.Submitted(), rec.Completed(), rec.Cancelled(), rec.Rejected(); s != c2+x+r {
		t.Errorf("books: submitted %d != completed %d + cancelled %d + rejected %d", s, c2, x, r)
	}
	if got := rec.Submitted(); got != n {
		t.Errorf("submitted = %d, want %d", got, n)
	}
}

// TestSubmitBatchCompletes exercises the exported group API end to end.
func TestSubmitBatchCompletes(t *testing.T) {
	rec := obs.NewRecorder(1)
	c := ingressCluster(t, rec, []int{2}, []int{512})
	defer c.Close()

	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Length: 64 + i}
	}
	out := c.SubmitBatch(context.Background(), reqs)
	if len(out) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(out), len(reqs))
	}
	for i, br := range out {
		if br.Err != nil {
			t.Errorf("member %d: %v", i, br.Err)
		} else if br.Result.Latency <= 0 {
			t.Errorf("member %d: latency %v", i, br.Result.Latency)
		}
	}
	if got := rec.Completed(); got != int64(len(reqs)) {
		t.Errorf("completed = %d, want %d", got, len(reqs))
	}
}

// TestSubmitBatchSpreadsWithinLevel pins what a group does not share: the
// front it dispatches on. 64 requests of one bucket submitted as one group
// must spread over that level's four instances exactly as 64 single
// submits would — each member's dispatch repairs the heap before the next
// reads it — and none may be demoted past an idle instance of its own
// runtime. (With the heap repair deferred to the end of the group all 64
// read the same front: 64/0/0/0, and the tail of the group demoted.)
func TestSubmitBatchSpreadsWithinLevel(t *testing.T) {
	c := ingressCluster(t, nil, []int{4, 2, 1, 1}, []int{128, 256, 384, 512})
	defer c.Close()

	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Length: 100}
	}
	perInstance := map[int]int{}
	for i, br := range c.SubmitBatch(context.Background(), reqs) {
		if br.Err != nil {
			t.Fatalf("member %d: %v", i, br.Err)
		}
		if sp := br.Result.Span; sp.Level != 0 || sp.DemotionHops() != 0 {
			t.Errorf("member %d served at level %d (%d hops), want its own runtime", i, sp.Level, sp.DemotionHops())
		}
		perInstance[br.Result.Span.Instance]++
	}
	if len(perInstance) != 4 {
		t.Errorf("group landed on %d instances, want all 4 of level 0: %v", len(perInstance), perInstance)
	}
	for id, n := range perInstance {
		if n < 8 {
			t.Errorf("instance %d took %d of 64, want >= 8 (herding): %v", id, n, perInstance)
		}
	}
}

// TestSubmitBatchSpentDeadline pins the drain-time rule: a member whose
// deadline is already spent when its group is dispatched is rejected with
// ErrDeadlineExceeded before touching the queue.
func TestSubmitBatchSpentDeadline(t *testing.T) {
	rec := obs.NewRecorder(1)
	c := ingressCluster(t, rec, []int{1}, []int{512})
	defer c.Close()

	jobs := []*job{newJob(100), newJob(100)}
	jobs[0].deadline = time.Now().Add(-time.Second) // spent before drain
	c.submitBatch(jobs)

	var res Result
	err := c.await(context.Background(), jobs[0], rec, &res)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("spent-deadline member: err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, should also match context.DeadlineExceeded", err)
	}
	if err := c.await(context.Background(), jobs[1], rec, &res); err != nil || res.Latency <= 0 {
		t.Fatalf("live member: res=%v err=%v, want completion", res, err)
	}
	if got := rec.RejectedFor(obs.RejectDeadline); got != 1 {
		t.Errorf("deadline rejects = %d, want 1", got)
	}
	// The rejected member never dispatched: no residual load.
	if got := c.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d, want 0", got)
	}
}

// TestSubmitBatchCancelledMemberDiscarded pins the cancellation-while-
// ringed half of the drain contract: a job whose submitter already won
// the pending→cancelled CAS is discarded without dispatch.
func TestSubmitBatchCancelledMemberDiscarded(t *testing.T) {
	rec := obs.NewRecorder(1)
	c := ingressCluster(t, rec, []int{1}, []int{512})
	defer c.Close()

	j := newJob(100)
	if !j.state.CompareAndSwap(jobPending, jobCancelled) {
		t.Fatal("fresh job not pending")
	}
	live := newJob(100)
	c.submitBatch([]*job{j, live})
	var res Result
	if err := c.await(context.Background(), live, rec, &res); err != nil || res.Latency <= 0 {
		t.Fatalf("live member: res=%v err=%v, want completion", res, err)
	}
	if got := c.Outstanding(); got != 0 {
		t.Errorf("outstanding = %d, want 0 (cancelled member must not dispatch)", got)
	}
}

// TestIngressClose checks shutdown: Close resolves every in-flight
// submission (completion or ErrClusterClosed) and later submissions are
// refused immediately.
func TestIngressClose(t *testing.T) {
	rec := obs.NewRecorder(1)
	c := ingressCluster(t, rec, []int{1}, []int{512})
	defer c.Close()
	g := NewIngress(c, IngressConfig{Shards: 2})

	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := g.SubmitCtx(context.Background(), Request{Length: 100})
			errs <- err
		}()
	}
	time.Sleep(500 * time.Microsecond)
	g.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, ErrClusterClosed) && !errors.Is(err, ErrCongested) {
			t.Errorf("unexpected error after Close: %v", err)
		}
	}
	if _, err := g.SubmitCtx(context.Background(), Request{Length: 100}); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("submit after Close: err = %v, want ErrClusterClosed", err)
	}
	g.Close() // idempotent
}

// BenchmarkSubmitPerRequest is the baseline for BenchmarkSubmitGrouped:
// the same 64 requests in flight, but each submitted through its own
// SubmitCtx (one topology RLock + one stripe lock acquisition apiece).
func BenchmarkSubmitPerRequest(b *testing.B) {
	p := testProfile(b, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{4},
		Dispatcher:        rsFactory,
		TimeScale:         1e-9,
		Overhead:          -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.SetParallelism(DefaultMaxGroup)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.SubmitCtx(context.Background(), Request{Length: 100}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubmitGrouped measures the amortized group path against the
// per-request baseline in BenchmarkSubmitCtx-style terms: allocs/op and
// ns/op of the submission handoff with near-zero emulated compute.
func BenchmarkSubmitGrouped(b *testing.B) {
	p := testProfile(b, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{4},
		Dispatcher:        rsFactory,
		TimeScale:         1e-9,
		Overhead:          -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	reqs := make([]Request, DefaultMaxGroup)
	for i := range reqs {
		reqs[i] = Request{Length: 100}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(reqs) {
		out := c.SubmitBatch(context.Background(), reqs)
		for _, br := range out {
			if br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
}
