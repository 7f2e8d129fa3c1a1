// Ingress is the batched submission path: sharded MPSC rings amortize the
// per-request handoff (topology read lock, queue stripe locks, scheduler
// wakeups) across groups of requests while preserving SubmitCtx semantics
// per member — cancellation-while-queued, typed errors, pooled jobs, and
// spans that now also carry the ingress_wait stage.
//
//	producer goroutines              ring consumers           workers
//	SubmitCtx ─lease─enqueue──► [shard 0..P-1] ──drain G──► submitBatch ──► w.ch
//	   │                                                        │
//	   └────────────────── await(j.done) ◄──────────────────────┘
//
// submitBatch is where the amortization happens: one topology RLock (under
// which closed is settled) and one clock read per group. Dispatch itself
// is not amortized — every member is placed by the same place(ctx, j)
// route uses, on a front the previous member's dispatch already repaired.
package cluster

import (
	"context"
	"fmt"
	"sync"
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
	rec := c.obsRec.Load()
	jobs := make([]*job, len(reqs))
	for i, r := range reqs {
		// A member refused at the door resolves here; its slot stays nil
		// through the group dispatch.
		jobs[i], out[i].Err = c.lease(ctx, rec, r)
	}
	c.submitBatch(jobs)
	for i, j := range jobs {
		if j != nil {
			out[i].Err = c.await(ctx, j, rec, &out[i].Result)
		}
	}
	return out
}

// submitBatch places one group of leased jobs — a SubmitBatch call or a
// ring drain — the amortized counterpart of route: one shared acquisition
// of the topology lock (so closed is settled once) and one clock read
// cover the whole group. With a tenant registry members take their fair
// turn through the pump instead of placing inline. Every job is resolved
// exactly once: handed on, discarded if its submitter already cancelled,
// or failed with a typed error through its done channel. nil slots are
// members lease already resolved.
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
			if c.fairQ != nil {
				err = c.fairEnqueue(j)
			} else {
				err = c.place(context.Background(), j)
			}
		}
		if err != nil {
			c.failJob(j, err)
		}
	}
}

// IngressConfig tunes an Ingress. The zero value gives GOMAXPROCS shards
// of ring.DefaultShardCapacity slots drained in groups of DefaultMaxGroup.
type IngressConfig struct {
	// Shards is the submit-ring shard count (<= 0: GOMAXPROCS).
	Shards int
	// ShardCapacity is the per-shard slot count, rounded up to a power of
	// two (<= 0: ring.DefaultShardCapacity). A full ring rejects with
	// ErrCongested — explicit backpressure instead of queueing latency.
	ShardCapacity int
	// MaxGroup caps how many requests one drain hands to SubmitBatch
	// (<= 0: DefaultMaxGroup). Larger groups amortize more but let the
	// head of the group wait longer behind the tail's dispatches.
	MaxGroup int
}

// DefaultMaxGroup is the drain group cap used when IngressConfig leaves
// MaxGroup unset.
const DefaultMaxGroup = 64

// Ingress is the ring-fed submission front end of a cluster: producers
// enqueue lock-free into per-shard MPSC rings, and one consumer goroutine
// per shard drains groups into submitBatch. SubmitCtx is a drop-in
// replacement for Cluster.SubmitCtx with identical per-request semantics.
type Ingress struct {
	c      *Cluster
	r      *ring.Ring[*job]
	group  int
	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewIngress starts the ring consumers over a running cluster. Close the
// Ingress before closing the cluster.
func NewIngress(c *Cluster, cfg IngressConfig) *Ingress {
	group := cfg.MaxGroup
	if group <= 0 {
		group = DefaultMaxGroup
	}
	g := &Ingress{
		c:     c,
		r:     ring.New[*job](cfg.Shards, cfg.ShardCapacity),
		group: group,
		stop:  make(chan struct{}),
	}
	for s := 0; s < g.r.Shards(); s++ {
		g.wg.Add(1)
		go g.consume(s)
	}
	return g
}

// consume drains one shard in groups for the Ingress's lifetime. A wakeup
// may race the producer, so an empty drain just parks again.
func (g *Ingress) consume(shard int) {
	defer g.wg.Done()
	buf := make([]*job, 0, g.group)
	for {
		buf = g.r.Drain(shard, buf[:0], g.group)
		if len(buf) > 0 {
			g.c.submitBatch(buf)
			continue
		}
		if !g.r.Wait(shard, g.stop) {
			// Stopping: flush what is already published. Anything enqueued
			// after this final pass is swept by Close.
			for {
				buf = g.r.Drain(shard, buf[:0], g.group)
				if len(buf) == 0 {
					return
				}
				g.c.submitBatch(buf)
			}
		}
	}
}

// SubmitCtx dispatches one request through the submit ring and blocks
// until it completes or the context is done — Cluster.SubmitCtx semantics
// with the handoff amortized. A full ring returns ErrCongested
// immediately (backpressure); a request whose context fires while ringed
// is discarded by the drain without touching the queue.
func (g *Ingress) SubmitCtx(ctx context.Context, req Request) (res Result, err error) {
	rec := g.c.obsRec.Load()
	if g.closed.Load() {
		rec.RecordSubmit()
		rec.RecordReject(obs.RejectClosed)
		return res, ErrClusterClosed
	}
	j, err := g.c.lease(ctx, rec, req)
	if err != nil {
		return res, err
	}
	if _, ok := g.r.Enqueue(j); !ok {
		jobPool.Put(j)
		rec.RecordReject(obs.RejectCongested)
		return res, fmt.Errorf("%w: ingress ring full", ErrCongested)
	}
	if g.closed.Load() {
		// Close may already have swept the rings; reclaim the job if the
		// sweep has not resolved it, so this submitter cannot hang.
		if j.state.CompareAndSwap(jobPending, jobCancelled) {
			rec.RecordReject(obs.RejectClosed)
			return res, ErrClusterClosed
		}
	}
	err = g.c.await(ctx, j, rec, &res)
	return res, err
}

// Close stops the consumers, drains the rings, and fails anything still
// ringed with ErrClusterClosed. Idempotent.
func (g *Ingress) Close() {
	if g.closed.Swap(true) {
		return
	}
	close(g.stop)
	g.wg.Wait()
	// Sweep stragglers that raced the closed flag: their submitters are
	// parked in await and must see a typed error. Enqueuers that arrive
	// after this sweep observe closed==true and reclaim their own job.
	buf := make([]*job, 0, g.group)
	for s := 0; s < g.r.Shards(); s++ {
		for {
			buf = g.r.Drain(s, buf[:0], g.group)
			if len(buf) == 0 {
				break
			}
			for _, j := range buf {
				g.c.failJob(j, ErrClusterClosed)
			}
		}
	}
}
