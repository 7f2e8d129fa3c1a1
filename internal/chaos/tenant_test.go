package chaos

import (
	"testing"
	"time"

	"arlo/internal/tenant"
)

// TestConservationManySeedsTenants re-runs the conservation sweep with
// the cluster in multi-tenant mode: every request carries a seeded tenant
// draw, one tenant's token bucket is tight enough to reject under the
// offered load, and the audit extends per tenant — outcomes partition
// each tenant's submissions, rate-limited rejections are typed and
// counted exactly once, and the registry's own admission counters agree
// with the harness's books. The generative arm composes tenancy with
// continuous batching — every request carries an output budget, admission
// is priced in prompt + output tokens, and completions must still deliver
// their full token count. Run with -race to also audit the bucket and
// fair-queue synchronization.
func TestConservationManySeedsTenants(t *testing.T) {
	for _, mode := range []struct {
		name         string
		generative   bool
		seeds, short int
		noisyBucket  float64
	}{
		{name: "encoder", seeds: 150, short: 30, noisyBucket: 400},
		{name: "generative", generative: true, seeds: 50, short: 15, noisyBucket: 600},
	} {
		t.Run(mode.name, func(t *testing.T) {
			seeds := mode.seeds
			if testing.Short() {
				seeds = mode.short
			}
			p := testProfile(t)
			tenants := []tenant.Config{
				{ID: "interactive", SLOClass: "interactive", Weight: 2},
				{ID: "standard", Weight: 1},
				// A deliberately tight bucket: the seeded share of the load
				// that lands here overruns it, so admission rejections
				// exercise the rate-limited outcome class in most runs.
				{ID: "noisy", SLOClass: "batch", Capacity: mode.noisyBucket, RefillPerSec: 50, Weight: 1},
			}
			sawRateLimited := false
			for seed := 0; seed < seeds; seed++ {
				tr := testTrace(t, int64(seed), 150, 200*time.Millisecond)
				if mode.generative {
					tr = genTrace(t, int64(seed))
				}
				cfg := Config{
					Profile:        p,
					Allocation:     []int{1, 2},
					Trace:          tr,
					TimeScale:      0.02,
					Seed:           int64(seed),
					CancelFraction: 0.2,
					MaxBatch:       4,
					Generative:     mode.generative,
					MaxNewTokens:   32,
					Tenants:        tenants,
					Events: []Event{
						{At: 20 * time.Millisecond, Kind: Slow, Runtime: 1, Factor: 3},
						{At: 50 * time.Millisecond, Kind: Fail, Runtime: 1, Downtime: 60 * time.Millisecond},
						{At: 100 * time.Millisecond, Kind: Fail, Runtime: -1, Downtime: 0},
					},
				}
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := rep.Check(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Submitted != len(cfg.Trace.Requests) {
					t.Fatalf("seed %d: submitted %d of %d trace requests", seed, rep.Submitted, len(cfg.Trace.Requests))
				}
				if rep.RateLimited > 0 {
					sawRateLimited = true
					// Rejections must come only from the bucket-limited
					// tenant: unlimited tenants can never be rate-limited.
					for _, id := range []string{"interactive", "standard"} {
						if b := rep.PerTenant[id]; b.RateLimited != 0 {
							t.Fatalf("seed %d: unlimited tenant %s saw %d rate-limited", seed, id, b.RateLimited)
						}
					}
				}
			}
			if !sawRateLimited {
				t.Error("no run exercised the rate-limited path; tighten the noisy tenant's bucket")
			}
		})
	}
}
