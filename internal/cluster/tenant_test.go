package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arlo/internal/obs"
	"arlo/internal/tenant"
)

func testRegistry(t *testing.T, cfgs ...tenant.Config) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestTenantAdmissionRejects pins the rejection contract: a request over
// the tenant's bucket never touches the queue, surfaces as ErrRateLimited
// with a bounded Retry-After hint, and books exactly one submission with
// one rate-limited rejection on both the recorder and the registry.
func TestTenantAdmissionRejects(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		Tenants: testRegistry(t,
			tenant.Config{ID: "tight", Capacity: 512, RefillPerSec: 0, Weight: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder()
	defer c.Close()

	// First request fits the bucket exactly; the second finds it empty.
	if _, err := c.SubmitCtx(context.Background(), Request{Length: 512, Tenant: "tight"}); err != nil {
		t.Fatalf("in-budget request rejected: %v", err)
	}
	_, err = c.SubmitCtx(context.Background(), Request{Length: 512, Tenant: "tight"})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-budget request returned %v, want ErrRateLimited", err)
	}
	var rl *tenant.RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("rejection %v is not a *tenant.RateLimitError", err)
	}
	if rl.Tenant != "tight" || rl.RetryAfter < time.Millisecond || rl.RetryAfter > time.Hour {
		t.Fatalf("rejection detail %+v", rl)
	}

	if got := rec.RejectedFor(obs.RejectRateLimited); got != 1 {
		t.Fatalf("recorder booked %d rate-limited rejections, want 1", got)
	}
	if got := rec.Submitted(); got != 2 {
		t.Fatalf("recorder booked %d submissions, want 2", got)
	}
	st := c.Tenants().Get("tight").Stat()
	if st.Admitted != 1 || st.Rejected != 1 {
		t.Fatalf("registry books admitted=%d rejected=%d, want 1/1", st.Admitted, st.Rejected)
	}
}

// TestTenantUnknownFallsBackToDefault: requests with an empty or
// unregistered tenant resolve to the unlimited default record, so
// single-tenant callers are untouched by enabling the registry.
func TestTenantUnknownFallsBackToDefault(t *testing.T) {
	p := testProfile(t, []int{512})
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		Tenants:           testRegistry(t, tenant.Config{ID: "a", Weight: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, id := range []string{"", "unregistered"} {
		if _, err := c.SubmitCtx(context.Background(), Request{Length: 128, Tenant: id}); err != nil {
			t.Fatalf("tenant %q: %v", id, err)
		}
	}
	st := c.Tenants().Get(tenant.DefaultID).Stat()
	if st.Admitted != 2 {
		t.Fatalf("default tenant admitted %d, want 2", st.Admitted)
	}
}

// TestTenantNilRegistryUnchanged: without a registry the tenant field is
// inert — no admission, no fair queue, Tenants() is nil. This is the
// single-tenant fast path the Fig. 9 benchmark runs on.
func TestTenantNilRegistryUnchanged(t *testing.T) {
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
	if c.Tenants() != nil {
		t.Fatal("Tenants() non-nil without a registry")
	}
	if _, err := c.SubmitCtx(context.Background(), Request{Length: 128, Tenant: "anyone"}); err != nil {
		t.Fatalf("tenant-labeled request on single-tenant cluster: %v", err)
	}
	if n := c.fairQueueLen(); n != 0 {
		t.Fatalf("fair queue reports %d jobs without a registry", n)
	}
}

// TestTenantClassPolicyOnJob pins applyTenant's stamping: interactive
// requests get the model SLO as an implicit deadline (scaled), class
// window factors scale the batch-collection window, and a deadline the
// submitter brought is never overwritten.
func TestTenantClassPolicyOnJob(t *testing.T) {
	p := testProfile(t, []int{512})
	reg := testRegistry(t,
		tenant.Config{ID: "int", SLOClass: "interactive"},
		tenant.Config{ID: "std"},
		tenant.Config{ID: "bat", SLOClass: "batch"},
	)
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		MaxBatch:          4,
		BatchDelay:        2 * time.Millisecond,
		Tenants:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		id         string
		wantDL     bool
		wantWindow time.Duration
	}{
		{"int", true, 500 * time.Microsecond}, // 2ms x 0.25
		{"std", false, 2 * time.Millisecond},
		{"bat", false, 8 * time.Millisecond}, // 2ms x MaxWindowFactor
	}
	for _, tc := range cases {
		j := newJob(128)
		before := time.Now()
		c.applyTenant(j, reg.Get(tc.id))
		if j.deadline.IsZero() == tc.wantDL {
			t.Errorf("%s: implicit deadline set=%v, want %v", tc.id, !j.deadline.IsZero(), tc.wantDL)
		}
		if tc.wantDL {
			want := before.Add(p.SLO)
			if j.deadline.Before(want) || j.deadline.After(want.Add(50*time.Millisecond)) {
				t.Errorf("%s: implicit deadline %v not ~SLO from now", tc.id, j.deadline)
			}
		}
		if j.window != tc.wantWindow {
			t.Errorf("%s: window %v, want %v", tc.id, j.window, tc.wantWindow)
		}
		jobPool.Put(j)
	}

	// A submitter-provided deadline survives class policy.
	j := newJob(128)
	own := time.Now().Add(42 * time.Second)
	j.deadline = own
	c.applyTenant(j, reg.Get("int"))
	if !j.deadline.Equal(own) {
		t.Errorf("class policy overwrote the submitter's deadline: %v", j.deadline)
	}
	jobPool.Put(j)
}

// TestTenantFairShareNoStarvation is the end-to-end starvation test: a
// noisy tenant floods 9x the victim's request count into a one-instance
// cluster, and weighted-fair dispatch must interleave the victim's
// requests near the front instead of behind the noisy backlog. With a
// FIFO (the pre-tenancy order) the victim's last completion would be near
// position 1000; fair sharing bounds it near 2x the victim's own count.
func TestTenantFairShareNoStarvation(t *testing.T) {
	const noisyN, victimN = 900, 100
	p := testProfile(t, []int{512})
	reg := testRegistry(t,
		tenant.Config{ID: "noisy", Weight: 1},
		tenant.Config{ID: "victim", Weight: 1},
	)
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		TimeScale:         0.02,
		Overhead:          -1,
		QueueDepth:        8,
		Tenants:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Completion order equals fair dispatch order on one instance; each
	// submitter records its finishing position.
	var pos atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	victimPos := make([]int64, 0, victimN)
	var failures atomic.Int64
	submit := func(id string, n int, record bool) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := c.SubmitCtx(context.Background(), Request{Length: 512, Tenant: id})
				at := pos.Add(1)
				if err != nil {
					failures.Add(1)
					return
				}
				if record {
					mu.Lock()
					victimPos = append(victimPos, at)
					mu.Unlock()
				}
			}()
		}
	}
	submit("noisy", noisyN, false)
	// Let the noisy backlog build in the fair queue before the victim
	// arrives — the worst case for a FIFO.
	time.Sleep(8 * time.Millisecond)
	submit("victim", victimN, true)
	wg.Wait()

	// A heavily backlogged one-instance cluster may shed a stray request
	// through the dispatch congestion budget; tolerate noise but not a
	// pattern.
	if n := failures.Load(); n > 10 {
		t.Fatalf("%d requests failed", n)
	}
	if len(victimPos) < victimN-10 {
		t.Fatalf("recorded only %d victim completions", len(victimPos))
	}
	var worst int64
	for _, p := range victimPos {
		if p > worst {
			worst = p
		}
	}
	// Equal weights entitle the victim to every other dispatch once
	// present: its 100 requests finish within ~200 slots of its arrival
	// point. 450 of 1000 leaves headroom for the head start and in-flight
	// skew while still being far from the FIFO's ~1000.
	if worst > 450 {
		t.Fatalf("victim's last completion at position %d of %d — starved behind the noisy backlog",
			worst, noisyN+victimN)
	}

	// Every completed request was dispatched through the fair pump and
	// booked at its token cost — the books cover the whole drained load.
	noisySt := reg.Get("noisy").Stat()
	victimSt := reg.Get("victim").Stat()
	wantTokens := int64(noisyN+victimN-int(failures.Load())) * 512
	if got := noisySt.Dispatched + victimSt.Dispatched; got != wantTokens {
		t.Fatalf("dispatched books total %d tokens, want %d", got, wantTokens)
	}
}

// TestTenantWeightBiasesOrder: with a 9:1 weight edge the victim's whole
// backlog overtakes most of the noisy queue even though the noisy tenant
// arrived first.
func TestTenantWeightBiasesOrder(t *testing.T) {
	const noisyN, victimN = 600, 100
	p := testProfile(t, []int{512})
	reg := testRegistry(t,
		tenant.Config{ID: "noisy", Weight: 1},
		tenant.Config{ID: "victim", Weight: 9},
	)
	c, err := New(Config{
		Profile:           p,
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		TimeScale:         0.02,
		Overhead:          -1,
		QueueDepth:        8,
		Tenants:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var pos atomic.Int64
	var wg sync.WaitGroup
	var worst atomic.Int64
	var failures atomic.Int64
	run := func(id string, n int, track bool) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := c.SubmitCtx(context.Background(), Request{Length: 512, Tenant: id})
				at := pos.Add(1)
				if err != nil {
					failures.Add(1)
					return
				}
				if track {
					for {
						w := worst.Load()
						if at <= w || worst.CompareAndSwap(w, at) {
							break
						}
					}
				}
			}()
		}
	}
	run("noisy", noisyN, false)
	time.Sleep(8 * time.Millisecond)
	run("victim", victimN, true)
	wg.Wait()

	if n := failures.Load(); n > 7 {
		t.Fatalf("%d requests failed", n)
	}
	// At 9:1 the victim takes ~9 of every 10 dispatches while backlogged:
	// 100 requests fit in ~112 slots past its arrival point.
	if w := worst.Load(); w > 350 {
		t.Fatalf("victim's last completion at position %d of %d despite 9x weight", w, noisyN+victimN)
	}
}
