// Ingress is the batched submission path: sharded MPSC rings amortize the
// per-request handoff (topology read lock, clock read) across groups of
// requests while preserving SubmitCtx semantics per member —
// cancellation-while-queued, typed errors, pooled jobs, and spans that
// now also carry the ingress_wait stage.
//
//	submitter goroutines                                      workers
//	SubmitCtx ─lease─enqueue──► [shard 0..P-1]
//	   │  flag free: drain G ──► submitBatch ─────────────────► w.ch
//	   │  flag taken: the holder drains this job                 │
//	   └────────────────── await(j.done) ◄───────────────────────┘
//
// No goroutine of the Ingress's own sits between a request and its
// placement: the submitter that takes its shard's drain flag places what
// the shard holds, its own job and any that collided with it, so a group
// forms only when submitters really contend (flat combining).
//
// submitBatch is where the amortization happens: one topology RLock (under
// which closed is settled) and one clock read per group. Dispatch itself
// is not amortized — every member is placed by the same place(ctx, j)
// route uses, on a front the previous member's dispatch already repaired.
package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"arlo/internal/obs"
	"arlo/internal/ring"
)

// BatchResult is one member's outcome of SubmitBatch: exactly one of
// Result (a completion) or Err (a typed rejection, cancellation or
// failure) is meaningful, mirroring SubmitCtx's return pair.
type BatchResult struct {
	Result Result
	Err    error
}

// SubmitBatch dispatches a group of requests in one pass and blocks until
// every member completes or ctx fires. The group shares one topology
// read-lock acquisition; each member is dispatched exactly as SubmitCtx
// would dispatch it, so a group bound for one level spreads over that
// level's instances. Per-member semantics are identical to SubmitCtx: each
// member resolves independently to a completion or a typed error, the ctx
// deadline and cancellation are honored while queued, and a member whose
// deadline is already spent when the group is dispatched is rejected with
// ErrDeadlineExceeded before touching the queue.
func (c *Cluster) SubmitBatch(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	jobs := make([]*job, len(reqs))
	for i, r := range reqs {
		// A member refused at the door resolves here; its slot stays nil
		// through the group dispatch.
		jobs[i], out[i].Err = c.lease(ctx, r)
	}
	c.submitBatch(jobs)
	for i, j := range jobs {
		if j != nil {
			out[i].Err = c.await(ctx, j, &out[i].Result)
		}
	}
	return out
}

// submitBatch places one group of leased jobs — a SubmitBatch call or a
// ring drain — the amortized counterpart of route: one shared acquisition
// of the topology lock (so closed is settled once) and one clock read
// cover the whole group. Every placed member's cost goes on its tenant's
// dispatched books, as in submit. Every job is resolved exactly once:
// handed on, discarded if its submitter already cancelled, or failed with
// a typed error through its done channel. nil slots are members lease
// already resolved.
func (c *Cluster) submitBatch(jobs []*job) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	now := time.Now()
	for _, j := range jobs {
		if j == nil {
			continue
		}
		if j.state.Load() == jobCancelled {
			// The submitter's context fired while the job sat in the ring;
			// it already returned, so the drain owns (and discards) the job.
			jobPool.Put(j)
			continue
		}
		var err error
		switch {
		case c.closed:
			err = ErrClusterClosed
		case !j.deadline.IsZero() && !now.Before(j.deadline):
			// The member's deadline was spent while it waited for its
			// group: reject before touching the queue, mirroring the batch
			// former's per-member CAS rule.
			err = cancelErr(context.DeadlineExceeded)
		default:
			j.span.IngressWait = now.Sub(j.span.Enqueued)
			t, cost := j.tenant, j.span.Length+j.maxNew
			if err = c.place(context.Background(), j); err == nil && t != nil {
				t.RecordDispatched(cost)
			}
		}
		if err != nil {
			c.failJob(j, err)
		}
	}
}

// IngressConfig tunes an Ingress. The zero value drains groups of
// DefaultMaxGroup from GOMAXPROCS shards of ring.DefaultShardCapacity
// slots; a full ring rejects with ErrCongested — explicit backpressure
// instead of queueing latency.
type IngressConfig struct {
	// MaxGroup caps how many requests one drain hands to submitBatch
	// (<= 0: DefaultMaxGroup). Larger groups amortize more but let the
	// head of the group wait longer behind the tail's dispatches.
	MaxGroup int
}

// DefaultMaxGroup is the drain group cap used when IngressConfig leaves
// MaxGroup unset.
const DefaultMaxGroup = 64

// Ingress is the ring-fed submission front end of a cluster: submitters
// enqueue lock-free into per-shard MPSC rings and drain their own shard
// into submitBatch unless another submitter already is. SubmitCtx is a
// drop-in replacement for Cluster.SubmitCtx with identical per-request
// semantics.
type Ingress struct {
	c      *Cluster
	r      *ring.Ring[*job]
	group  int
	closed atomic.Bool
	// bufs holds one drain buffer of capacity group per shard, used only
	// by the holder of that shard's drain flag.
	bufs [][]*job
}

// NewIngress builds the rings over a running cluster; it starts no
// goroutine. Close the Ingress before closing the cluster.
func NewIngress(c *Cluster, cfg IngressConfig) *Ingress {
	group := cfg.MaxGroup
	if group <= 0 {
		group = DefaultMaxGroup
	}
	g := &Ingress{c: c, r: ring.New[*job](0, 0), group: group}
	g.bufs = make([][]*job, g.r.Shards())
	for s := range g.bufs {
		g.bufs[s] = make([]*job, 0, group)
	}
	return g
}

// drain places what the shard holds, in groups, for as long as this
// goroutine can take the shard's drain flag: a submitter that finds the
// flag taken returns at once, leaving its job to the holder, and the
// holder tries again whenever Release reports a job published behind its
// last drain. submitBatch never waits on a worker (place is a
// non-blocking send), so a submitter drains for microseconds before it
// awaits its own job. A group taken after Close fails with
// ErrClusterClosed: closing the ring is a drain.
func (g *Ingress) drain(shard int) {
	for g.r.TryAcquire(shard) {
		buf := g.bufs[shard]
		for {
			buf = g.r.Drain(shard, buf[:0], g.group)
			if len(buf) == 0 {
				break
			}
			if g.closed.Load() {
				for _, j := range buf {
					g.c.failJob(j, ErrClusterClosed)
				}
			} else {
				g.c.submitBatch(buf)
			}
		}
		if !g.r.Release(shard) {
			return
		}
	}
}

// SubmitCtx dispatches one request through the submit ring and blocks
// until it completes or the context is done — Cluster.SubmitCtx semantics
// with the handoff amortized. A full ring returns ErrCongested
// immediately (backpressure); a request whose context fires while ringed
// is discarded by the drain without touching the queue.
func (g *Ingress) SubmitCtx(ctx context.Context, req Request) (res Result, err error) {
	rec := g.c.rec
	if g.closed.Load() {
		rec.RecordSubmit(req.Length)
		rec.RecordReject(obs.RejectClosed)
		return res, ErrClusterClosed
	}
	j, err := g.c.lease(ctx, req)
	if err != nil {
		return res, err
	}
	shard, ok := g.r.Enqueue(j)
	if !ok {
		jobPool.Put(j)
		rec.RecordReject(obs.RejectCongested)
		return res, fmt.Errorf("%w: ingress ring full", ErrCongested)
	}
	g.drain(shard)
	err = g.c.await(ctx, j, &res)
	return res, err
}

// Close refuses every later submission and drains every shard: what a
// shard still holds fails with ErrClusterClosed, by this drain or, where
// a submitter holds the shard's flag, by that holder's next group or its
// Release re-read. Idempotent.
func (g *Ingress) Close() {
	if g.closed.Swap(true) {
		return
	}
	for s := range g.bufs {
		g.drain(s)
	}
}
