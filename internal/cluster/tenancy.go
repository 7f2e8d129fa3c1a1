// Multi-tenant serving support for the live cluster: token-bucket
// admission in front of every submit path, SLO-class policy application,
// and the weighted-fair dispatch pump.
//
// With Config.Tenants unset nothing here runs — submissions take exactly
// the pre-tenancy code path, which is what keeps the Fig. 9 dispatch hot
// path allocation-free and unchanged. With a registry configured:
//
//  1. Every submit path (SubmitCtx, SubmitBatch, the ingress rings)
//     comes through lease, which resolves the request's tenant and runs token-bucket admission *before* leasing queue state: a
//     rejected request never touches the multi-level queue, so a bursting
//     tenant cannot trigger λ-congestion demotions for everyone else.
//  2. Admitted jobs flow through a start-time-fair queue (queue.Fair)
//     drained by a single pump goroutine. The pump's hand-off to a worker
//     never blocks below Config.QueueDepth, so jobs wait there only for
//     the pump itself unless a worker channel is full, and weight x class
//     bias have nothing to reorder: at the default depth of 8192 the
//     measured order is arrival order (ROADMAP holds what to do about it).
//  3. The tenant's SLO class stamps per-request policy: an implicit
//     deadline for interactive requests and a batching-window factor the
//     worker loop's Former honors per member.
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
// itself (for fair-share accounting and the span label), the class's
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

// fairEnqueue hands an admitted job to the fair queue in place of inline
// placement; the pump drains it in weighted-fair order. lease resolved the
// job's tenant.
func (c *Cluster) fairEnqueue(j *job) error {
	t := j.tenant
	weight := t.Weight() * t.Class().PriorityBias()
	cost := float64(j.span.Length + j.maxNew)
	if !c.fairQ.Push(t.ID(), weight, cost, j) {
		return ErrClusterClosed
	}
	return nil
}

// runFairPump is the single dispatch pump of a multi-tenant cluster: it
// pops jobs in weighted-fair order and places them through reroute.
// Congestion retries against a per-job budget, holding the pump (and with
// it every tenant) for budget sleeps of redispatchBackoff — eight of them,
// which last 8.7 ms at p50 and 12-16 ms at p98 on an idle 2-CPU Linux host
// (go1.24), not the 1.6 ms their nominal sum says; a saturated cluster is
// already not making fair progress. Terminal errors, here including an
// empty level, fail the job through the done channel exactly like a
// failover displacement. After Close the queue drains — leftover
// jobs fail with ErrClusterClosed so every submitter returns.
func (c *Cluster) runFairPump() {
	defer c.wg.Done()
	for {
		j, ok := c.fairQ.Pop()
		if !ok {
			return
		}
		// Once placed the job belongs to its worker and submitter — it can
		// complete and be pool-recycled before reroute returns — so capture
		// the accounting fields while the pump still owns it.
		t, cost := j.tenant, j.span.Length+j.maxNew
		retries := 0
		if c.reroute(j, &retries, true) {
			t.RecordDispatched(cost)
		}
	}
}

// fairQueueLen reports jobs admitted but not yet routed (0 without a
// registry) — part of the cluster's outstanding count so drain barriers
// see fairly-queued work.
func (c *Cluster) fairQueueLen() int {
	if c.fairQ == nil {
		return 0
	}
	return c.fairQ.Len()
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
