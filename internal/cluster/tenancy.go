// Multi-tenant serving support for the live cluster: token-bucket
// admission in front of every submit path and SLO-class policy
// application.
//
// With Config.Tenants unset nothing here runs — submissions take exactly
// the pre-tenancy code path, which is what keeps the Fig. 9 dispatch hot
// path allocation-free and unchanged. With a registry configured:
//
//  1. Every submit path (SubmitCtx, SubmitBatch, and the ingress rings
//     every server request enters through) comes through lease, which
//     resolves the request's tenant and runs token-bucket admission
//     *before* leasing queue state: a rejected request never touches the
//     multi-level queue, so a bursting tenant cannot trigger λ-congestion
//     demotions for everyone else.
//  2. The tenant's SLO class stamps per-request policy: an implicit
//     deadline for interactive requests and a batching-window factor the
//     worker loop's Former honors per member.
//  3. An admitted job places inline, exactly as an untenanted one does
//     (submit, submitBatch), and each placement adds the job's token cost
//     to its tenant's dispatched books. Nothing takes a placed job back:
//     closing the ingress fails only jobs its drains have not placed.
package cluster

import (
	"time"

	"arlo/internal/obs"
	"arlo/internal/tenant"
)

// ErrRateLimited is the admission-rejection sentinel: the resolved
// tenant's token bucket had insufficient budget. The concrete error is a
// *tenant.RateLimitError carrying the Retry-After hint.
var ErrRateLimited = tenant.ErrRateLimited

// Tenants returns the cluster's tenant registry (nil when multi-tenancy
// is disabled) — the admin API reads and live-updates records through it.
func (c *Cluster) Tenants() *tenant.Registry { return c.tenants }

// admitTenant resolves a request's tenant id and runs token-bucket
// admission for its token cost (input + requested output tokens). With no
// registry it returns (nil, nil) without any work. Allocation-free on
// admission; a rejection allocates only the error.
func (c *Cluster) admitTenant(id string, tokens int) (*tenant.Tenant, error) {
	reg := c.tenants
	if reg == nil {
		return nil, nil
	}
	t := reg.Get(id)
	if ok, retry := t.Admit(tokens); !ok {
		return nil, &tenant.RateLimitError{Tenant: t.ID(), RetryAfter: retry}
	}
	return t, nil
}

// applyTenant stamps tenant policy onto a freshly leased job: the record
// itself (for the dispatched books and the span label), the class's
// implicit deadline when the submitter brought none, and the class's
// batch-collection window.
func (c *Cluster) applyTenant(j *job, t *tenant.Tenant) {
	if t == nil {
		return
	}
	j.tenant, j.span.Tenant = t, t.ID()
	class := t.Class()
	if j.deadline.IsZero() {
		if d := class.DeadlineDefault(c.cfg.Profile.SLO); d > 0 {
			j.deadline = time.Now().Add(time.Duration(float64(d) * c.scale))
		}
	}
	if c.maxBatch > 1 && c.batchDelay > 0 {
		j.window = time.Duration(float64(c.batchDelay) * class.WindowFactor() * c.scale)
	}
}

// tenantSnapshot renders the registry's books as scrape-time stats with
// dispatch share normalized over cumulative dispatched token cost.
func (c *Cluster) tenantSnapshot() []obs.TenantStat {
	stats := c.tenants.Stats()
	var totalDispatched int64
	for _, s := range stats {
		totalDispatched += s.Dispatched
	}
	out := make([]obs.TenantStat, len(stats))
	for i, s := range stats {
		share := 0.0
		if totalDispatched > 0 {
			share = float64(s.Dispatched) / float64(totalDispatched)
		}
		out[i] = obs.TenantStat{
			Tenant:   s.ID,
			Admitted: s.Admitted,
			Rejected: s.Rejected,
			Share:    share,
		}
	}
	return out
}
