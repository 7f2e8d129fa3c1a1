package cluster

import (
	"context"
	"errors"
	"runtime"
	"strings"
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
// inert — no admission, no class policy, Tenants() is nil. This is the
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

// TestTenantDispatchedBooks pins the dispatched books on both entry
// points: each tenant's Dispatched is the token cost (Length +
// MaxNewTokens) of exactly its completed requests, and a request refused
// at admission adds nothing. SubmitCtx places through submit, the ingress
// ring through submitBatch.
func TestTenantDispatchedBooks(t *testing.T) {
	type submitFunc func(context.Context, Request) (Result, error)
	entries := []struct {
		name  string
		entry func(t *testing.T, c *Cluster) submitFunc
	}{
		{"SubmitCtx", func(_ *testing.T, c *Cluster) submitFunc { return c.SubmitCtx }},
		{"Ingress.SubmitCtx", func(t *testing.T, c *Cluster) submitFunc {
			g := NewIngress(c, IngressConfig{})
			t.Cleanup(g.Close) // before the cluster's Close
			return g.SubmitCtx
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			reg := testRegistry(t,
				tenant.Config{ID: "open"},
				tenant.Config{ID: "tight", Capacity: 1000})
			c, err := New(Config{
				Profile:           testProfile(t, []int{512}),
				InitialAllocation: []int{2},
				Dispatcher:        rsFactory,
				TimeScale:         1e-4,
				Overhead:          -1,
				Tenants:           reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			submit := e.entry(t, c)

			want := map[string]int64{}
			refused := 0
			for i := 0; i < 24; i++ {
				req := Request{Length: 50 + 20*i, MaxNewTokens: 4 * (i % 3), Tenant: []string{"open", "tight"}[i%2]}
				_, err := submit(context.Background(), req)
				switch {
				case err == nil:
					want[req.Tenant] += int64(req.Length + req.MaxNewTokens)
				case errors.Is(err, ErrRateLimited):
					refused++
				default:
					t.Fatalf("request %d: %v", i, err)
				}
			}
			if refused == 0 || want["tight"] == 0 {
				t.Fatalf("tight tenant: %d refused, %d tokens served; want both > 0", refused, want["tight"])
			}
			for _, id := range []string{"open", "tight"} {
				if got := reg.Get(id).Stat().Dispatched; got != want[id] {
					t.Errorf("%s: dispatched %d tokens, completed requests cost %d", id, got, want[id])
				}
			}
		})
	}
}

// TestTenantClusterRunsOnlyWorkers: a cluster with a tenant registry
// starts one goroutine per worker and no other. The goroutines New starts
// are told apart from the rest of the process by their ids and by their
// creator, a function of this package.
func TestTenantClusterRunsOnlyWorkers(t *testing.T) {
	before := clusterGoroutines()
	c, err := New(Config{
		Profile:           testProfile(t, []int{128, 512}),
		InitialAllocation: []int{2, 1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		Tenants:           testRegistry(t, tenant.Config{ID: "a"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	started := 0
	for id, stack := range clusterGoroutines() {
		if before[id] != "" {
			continue
		}
		started++
		if !strings.Contains(stack, "\ncreated by arlo/internal/cluster.(*Cluster).addWorker ") {
			t.Errorf("New started a goroutine that is not a worker:\n%s", stack)
		}
	}
	if started != 3 {
		t.Errorf("New started %d goroutines, want one per worker (3)", started)
	}
}

// clusterGoroutines returns the stack of every live goroutine that a
// function of this package created, keyed by goroutine id.
func clusterGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if f := strings.Fields(g); len(f) > 1 && strings.Contains(g, "\ncreated by arlo/internal/cluster.") {
			out[f[1]] = g
		}
	}
	return out
}
