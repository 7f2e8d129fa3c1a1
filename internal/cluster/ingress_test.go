package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/obs"
	"arlo/internal/tenant"
)

func ingressCluster(t *testing.T, alloc []int, lengths []int) *Cluster {
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
	return c
}

// TestIngressCancelWhileRinged drives a job through the ring while its
// context is already on the way out: whichever side wins the CAS, the
// submitter gets a typed error or a result, never a hang, and the books
// balance.
func TestIngressCancelWhileRinged(t *testing.T) {
	c := ingressCluster(t, []int{1}, []int{512})
	rec := c.Recorder()
	defer c.Close()
	g := NewIngress(c, IngressConfig{})
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
			if err == nil && res.Span.Total <= 0 {
				t.Errorf("nil error but latency %v", res.Span.Total)
			}
		}(i)
	}
	wg.Wait()

	// Conservation at the cluster boundary: every submission resolved
	// exactly one way.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && rec.InFlight() != 0 {
		time.Sleep(time.Millisecond)
	}
	if got := rec.InFlight(); got != 0 {
		t.Errorf("books: %d in flight (completed %d, cancelled %d, rejected %d)",
			got, rec.Completed(), rec.Cancelled(), rec.Rejected())
	}
	if got := rec.Submitted(); got != n {
		t.Errorf("submitted = %d, want %d", got, n)
	}
}

// TestIngressContendedSelfDrain drives the self-draining ring the way a
// busy server does: 64 goroutines submit 200 requests each through one
// Ingress, in rounds that end when every call of the round has returned,
// so each round ends on an idle ring where a job left behind by a drain
// holder would hang its submitter. Close lands in the middle round. Every
// call must return exactly once, with a result or a typed error; nothing
// may stay in flight; and NewIngress starts no goroutine. The tenancy arm
// runs the same drive with a registry, each submitter alternating two
// unlimited tenants, so drain holders place tenant jobs, and the
// tenants' dispatched books must equal the served requests' cost.
func TestIngressContendedSelfDrain(t *testing.T) {
	for _, arm := range []struct {
		name    string
		tenants *tenant.Registry
	}{
		{"plain", nil},
		{"tenants", testRegistry(t, tenant.Config{ID: "a"}, tenant.Config{ID: "b"})},
	} {
		t.Run(arm.name, func(t *testing.T) { contendedSelfDrain(t, arm.tenants) })
	}
}

func contendedSelfDrain(t *testing.T, reg *tenant.Registry) {
	const (
		workers = 64
		rounds  = 200
		length  = 100
	)
	c, err := New(Config{
		Profile:           testProfile(t, []int{512}),
		InitialAllocation: []int{4},
		Dispatcher:        rsFactory,
		TimeScale:         1e-6, // near-zero compute: the ring is the contended part
		Overhead:          -1,
		Tenants:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder()
	defer c.Close()

	before := runtime.NumGoroutine()
	g := NewIngress(c, IngressConfig{})
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("NewIngress started %d goroutines", after-before)
	}

	start := make([]chan struct{}, workers)
	returned := make(chan error, workers)
	for w := range start {
		start[w] = make(chan struct{}, 1)
		go func(w int, next <-chan struct{}) {
			ids := [2]string{"a", "b"}
			for r := 0; ; r++ {
				if _, ok := <-next; !ok {
					return
				}
				req := Request{Length: length, Tenant: ids[(w+r)%2]}
				res, err := g.SubmitCtx(context.Background(), req)
				if err == nil && res.Span.Total <= 0 {
					err = fmt.Errorf("nil error but latency %v", res.Span.Total)
				}
				returned <- err
			}
		}(w, start[w])
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()

	closed := make(chan struct{})
	var served, refused int
	for r := 0; r < rounds; r++ {
		for _, ch := range start {
			ch <- struct{}{}
		}
		if r == rounds/2 {
			go func() { g.Close(); close(closed) }()
		}
		timeout := time.After(10 * time.Second)
		for n := 0; n < workers; n++ {
			select {
			case err := <-returned:
				switch {
				case err == nil:
					served++
				case errors.Is(err, ErrClusterClosed) || errors.Is(err, ErrCongested):
					refused++
				default:
					t.Fatalf("round %d: untyped error %v", r, err)
				}
			case <-timeout:
				t.Fatalf("round %d: %d of %d calls never returned (a job stranded in the ring)", r, workers-n, workers)
			}
		}
	}
	<-closed
	t.Logf("served %d, refused %d", served, refused)
	if served == 0 || refused == 0 {
		t.Errorf("served %d, refused %d: want both before and after Close", served, refused)
	}
	if got := rec.Submitted(); got != workers*rounds {
		t.Errorf("submitted = %d, want %d", got, workers*rounds)
	}
	if got := rec.InFlight(); got != 0 {
		t.Errorf("in flight = %d after every call returned, want 0", got)
	}
	if reg != nil {
		a, b := reg.Get("a").Stat(), reg.Get("b").Stat()
		if got := a.Dispatched + b.Dispatched; got != int64(served*length) {
			t.Errorf("tenants' dispatched books hold %d tokens; served requests cost %d",
				got, served*length)
		}
		if a.Admitted == 0 || b.Admitted == 0 {
			t.Errorf("admitted a=%d b=%d: want both tenants placed", a.Admitted, b.Admitted)
		}
	}
}

// TestSubmitBatchCompletes exercises the exported group API end to end.
func TestSubmitBatchCompletes(t *testing.T) {
	c := ingressCluster(t, []int{2}, []int{512})
	rec := c.Recorder()
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
		} else if br.Result.Span.Total <= 0 {
			t.Errorf("member %d: latency %v", i, br.Result.Span.Total)
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
	c := ingressCluster(t, []int{4, 2, 1, 1}, []int{128, 256, 384, 512})
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
	c := ingressCluster(t, []int{1}, []int{512})
	rec := c.Recorder()
	defer c.Close()

	jobs := []*job{newJob(100), newJob(100)}
	jobs[0].deadline = time.Now().Add(-time.Second) // spent before drain
	c.submitBatch(jobs)

	var res Result
	err := c.await(context.Background(), jobs[0], &res)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("spent-deadline member: err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, should also match context.DeadlineExceeded", err)
	}
	if err := c.await(context.Background(), jobs[1], &res); err != nil || res.Span.Total <= 0 {
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
	c := ingressCluster(t, []int{1}, []int{512})
	defer c.Close()

	j := newJob(100)
	if !j.state.CompareAndSwap(jobPending, jobCancelled) {
		t.Fatal("fresh job not pending")
	}
	live := newJob(100)
	c.submitBatch([]*job{j, live})
	var res Result
	if err := c.await(context.Background(), live, &res); err != nil || res.Span.Total <= 0 {
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
	c := ingressCluster(t, []int{1}, []int{512})
	defer c.Close()
	g := NewIngress(c, IngressConfig{})

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

// TestIngressCloseDrainsHeldShard pins close-as-a-drain at the one
// interleaving where Close cannot drain a shard itself: a submitter holds
// every shard's drain flag mid-drain, having placed job a, when job b is
// published behind it and Close lands. Close's own drains find the flags
// taken; the holder's Release re-read then drains b, and that drain must
// see closed: b fails with ErrClusterClosed and books a closed rejection,
// while a, placed before Close, completes.
func TestIngressCloseDrainsHeldShard(t *testing.T) {
	c := ingressCluster(t, []int{1}, []int{512})
	rec := c.Recorder()
	defer c.Close()
	g := NewIngress(c, IngressConfig{})
	ctx := context.Background()

	for s := 0; s < g.r.Shards(); s++ {
		if !g.r.TryAcquire(s) {
			t.Fatalf("shard %d: fresh drain flag is taken", s)
		}
	}
	enqueue := func() (*job, int) {
		j, err := c.lease(ctx, Request{Length: 100})
		if err != nil {
			t.Fatal(err)
		}
		shard, ok := g.r.Enqueue(j)
		if !ok {
			t.Fatal("ring full")
		}
		return j, shard
	}
	a, sa := enqueue()
	c.submitBatch(g.r.Drain(sa, nil, g.group))
	b, sb := enqueue()

	g.Close()
	for s := 0; s < g.r.Shards(); s++ {
		if g.r.Release(s) != (s == sb) {
			t.Fatalf("shard %d: Release re-read disagrees with where b was published (shard %d)", s, sb)
		}
	}
	g.drain(sb)

	var res Result
	if err := c.await(ctx, b, &res); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("job published behind the holder: err = %v, want ErrClusterClosed", err)
	}
	if got := rec.RejectedFor(obs.RejectClosed); got != 1 {
		t.Errorf("closed rejections = %d, want 1", got)
	}
	if err := c.await(ctx, a, &res); err != nil {
		t.Errorf("job placed before Close: err = %v, want completion", err)
	}
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

// BenchmarkIngressContended is the case the ring exists for: 64
// goroutines submitting through one Ingress at once, with near-zero
// emulated compute, so submitters collide on their shards and the drains
// form groups.
func BenchmarkIngressContended(b *testing.B) {
	c, err := New(Config{
		Profile:           testProfile(b, []int{512}),
		InitialAllocation: []int{4},
		Dispatcher:        rsFactory,
		TimeScale:         1e-9,
		Overhead:          -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	g := NewIngress(c, IngressConfig{})
	defer g.Close()
	const submitters = 64
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := g.SubmitCtx(context.Background(), Request{Length: 100}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestArrivalBinsBookEachSubmission pins the controller's demand books:
// every submission, through either entry point and whatever its outcome,
// is counted once in its length's arrival bin, so for positive lengths the
// bins sum to Submitted(), and a take starts the next period at zero.
func TestArrivalBinsBookEachSubmission(t *testing.T) {
	c, err := New(Config{
		Profile:           testProfile(t, []int{128, 512}),
		InitialAllocation: []int{1, 1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		Tenants:           testRegistry(t, tenant.Config{ID: "tight", Capacity: 100}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := NewIngress(c, IngressConfig{})
	rec := c.Recorder()
	bg := context.Background()
	dead, cancel := context.WithCancel(bg)
	cancel()

	submits := []struct {
		name   string
		submit func(context.Context, Request) (Result, error)
		ctx    context.Context
		req    Request
		want   error
	}{
		{"direct", c.SubmitCtx, bg, Request{Length: 50}, nil},
		{"direct, long", c.SubmitCtx, bg, Request{Length: 300}, nil},
		{"direct, dead on arrival", c.SubmitCtx, dead, Request{Length: 60}, ErrDeadlineExceeded},
		{"direct, rate-limited", c.SubmitCtx, bg, Request{Length: 200, Tenant: "tight"}, ErrRateLimited},
		{"direct, too long", c.SubmitCtx, bg, Request{Length: 9999}, dispatch.ErrTooLong},
		{"ingress", g.SubmitCtx, bg, Request{Length: 100}, nil},
		{"ingress, dead on arrival", g.SubmitCtx, dead, Request{Length: 400}, ErrDeadlineExceeded},
		{"ingress, rate-limited", g.SubmitCtx, bg, Request{Length: 120, Tenant: "tight"}, ErrRateLimited},
	}
	for _, s := range submits {
		if _, err := s.submit(s.ctx, s.req); !errors.Is(err, s.want) {
			t.Fatalf("%s: err = %v, want %v", s.name, err, s.want)
		}
	}
	g.Close()
	if _, err := g.SubmitCtx(bg, Request{Length: 500}); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("ingress after Close: err = %v, want ErrClusterClosed", err)
	}

	bins := rec.TakeArrivals()
	if want := []int64{4, 5}; !slices.Equal(bins, want) {
		t.Errorf("arrival bins = %v, want %v", bins, want)
	}
	if sum := bins[0] + bins[1]; sum != rec.Submitted() {
		t.Errorf("arrival bins sum to %d, recorder booked %d submissions", sum, rec.Submitted())
	}
	if bins := rec.TakeArrivals(); !slices.Equal(bins, []int64{0, 0}) {
		t.Errorf("arrival bins after a take = %v, want [0 0]", bins)
	}
}
