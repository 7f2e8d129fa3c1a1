// Package cluster is the real-time counterpart of the discrete-event
// simulator: the "testbed" of this reproduction. Each GPU instance is a
// goroutine running one iteration-level worker loop (worker.go) on the
// wall clock — sequentially with one slot, as run-to-completion or
// continuous batches with more — emulating computation with the
// calibrated latency model; dispatching runs through the same multi-level
// queue and policies as the simulator.
// The section 5.2.1 calibration experiment replays one trace through both
// this prototype and the simulator and compares the distributions.
//
// The dispatch hot path is concurrent: submissions hold only a shared
// (read) lock on the cluster's topology, so any number of goroutines can
// dispatch in parallel while synchronization happens inside the
// lock-striped multi-level queue. The exclusive side of the lock is
// reserved for topology changes — adding or removing workers and Close —
// which also makes Submit-after-Close race-free: Close cannot close a
// worker channel while a submission holding the read lock is sending on
// it. Completions decrement the queue's atomic counters without any
// cluster-level lock.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/tenant"
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrClusterClosed is returned by submissions after Close.
	ErrClusterClosed = errors.New("cluster: closed")
	// ErrCongested is returned when the chosen worker cannot accept the
	// request right now (queue overflow, or the instance was concurrently
	// removed); the condition is transient and the request is safe to
	// retry.
	ErrCongested = errors.New("cluster: congested")
	// ErrDeadlineExceeded is returned by SubmitCtx when the request's
	// context expires or is cancelled before the request completes. The
	// returned error also wraps the context's own error, so
	// errors.Is(err, context.Canceled) and errors.Is(err,
	// context.DeadlineExceeded) discriminate the cause.
	ErrDeadlineExceeded = errors.New("cluster: request deadline exceeded")
	// ErrUnserviceable is returned when a request exhausted its requeue
	// budget: repeated instance failures (or the congestion transients
	// they cause) displaced it more times than the budget allows, and
	// failing it beats cycling it through crashes forever.
	ErrUnserviceable = errors.New("cluster: request unserviceable after repeated failures")
)

// Config describes a real-time cluster.
type Config struct {
	// Profile defines the runtimes and SLO.
	Profile *profiler.Profile
	// InitialAllocation gives per-runtime instance counts.
	InitialAllocation []int
	// Dispatcher builds the dispatch policy over the cluster's queue.
	Dispatcher dispatch.Factory
	// TimeScale compresses emulated compute time: wall time = modeled
	// latency * TimeScale. 0 defaults to 1 (real time).
	TimeScale float64
	// Overhead is added to each reported latency (0 defaults to the
	// simulator's 0.8 ms; negative forces zero). It models network +
	// host-device transfer and is not slept.
	Overhead time.Duration
	// MaxBatch enables dynamic batching: an idle worker coalesces up to
	// B_i = min(MaxBatch, Runtime.BatchWithinSLO(MaxBatch)) queued
	// requests and executes them as one emulated kernel at the sub-linear
	// batched cost (Runtime.BatchCostOf). 0 or 1 disables batching: the
	// worker loop runs with one slot and spans carry no batch fields.
	MaxBatch int
	// BatchDelay bounds the batch-collection window in modeled time
	// (scaled by TimeScale like execution): a worker holding a partial
	// batch waits at most this long for followers, and never past the
	// slack any member's context deadline leaves. 0 defaults to the
	// SLO-aware Profile.SLO/100; negative disables waiting entirely
	// (greedy formation — batches are whatever is already queued).
	BatchDelay time.Duration
	// Continuous switches workers to iteration-level (continuous)
	// batching for generative workloads: the batch is re-formed every
	// iteration, completed sequences exit immediately, and queued requests
	// are admitted into freed decode slots mid-flight (no collection
	// window while sequences are resident). Slot count per instance is the
	// same SLO-clamped B_i the run-to-completion path uses. Encoder
	// requests flow through unchanged (a prefill-only iteration).
	Continuous bool
	// MeanOutTokens hints the expected output length of generative
	// requests for the capacity model (the gen-aware M_i fed into the
	// queue's lambda-congestion estimate). 0 defaults to 16. Only read
	// when Continuous is set.
	MeanOutTokens float64
	// Tenants enables multi-tenant serving: token-bucket admission runs in
	// front of every submit path and each tenant's SLO class stamps its
	// requests' deadline and batch window; admitted jobs place inline like
	// any other (see tenancy.go). nil keeps the single-tenant fast path
	// unchanged.
	Tenants *tenant.Registry
}

// Cluster is a running set of emulated GPU workers.
type Cluster struct {
	cfg      Config
	ml       *queue.MultiLevel
	disp     dispatch.Dispatcher
	overhead time.Duration
	scale    float64

	// maxBatch and batchDelay are the normalized batching knobs (1 / 0
	// when batching is off); batchSeq numbers executed iterations for span
	// correlation. continuous lets the worker loop admit and release
	// sequences mid-flight and meanOut is its capacity-model output-length
	// hint.
	maxBatch   int
	batchDelay time.Duration
	batchSeq   atomic.Int64
	continuous bool
	meanOut    float64

	// rec is the cluster's one observability recorder, built with it: the
	// only books of what it served, and the window the control loop reads.
	rec *obs.Recorder

	// tenants is the multi-tenancy registry: nil when Config.Tenants is
	// unset (tenancy.go).
	tenants *tenant.Registry

	// mu guards topology only: the workers map, nextID and closed.
	// Submissions hold it shared across dispatch + channel send; worker
	// add/remove and Close hold it exclusively. Dispatch decisions and
	// completion accounting synchronize inside the multi-level queue.
	mu      sync.RWMutex
	workers map[int]*worker
	nextID  int
	closed  bool

	// failed tracks crashed instances through their downtime window so
	// health snapshots keep reporting them as dead until they rejoin
	// (under a fresh ID, via the AddInstance topology path). Guarded by mu.
	failed map[int]*failedInstance

	wg sync.WaitGroup
}

// failedInstance is the downtime-window record of one crashed instance.
type failedInstance struct {
	runtime  int
	capacity int
}

// Job lifecycle states. The submitter and the worker race on the state
// with CAS transitions, which is what makes context cancellation safe
// against the pooled-job recycling:
//
//	pending --worker--> running --worker--> done   (worker signals done;
//	                                                submitter recycles)
//	pending|running --ctx--> cancelled             (whoever holds the job
//	                                                next discards it)
//
// A failed job goes pending -> done with j.err set. Exactly one side wins
// each transition, so exactly one side returns the job to the pool and the
// done channel never holds a stale signal.
const (
	jobPending int32 = iota
	jobRunning
	jobDone
	jobCancelled
)

type job struct {
	done chan struct{}

	state atomic.Int32

	// requeues counts failure displacements against the cluster's requeue
	// budget. Only the goroutine currently owning the job touches it.
	requeues int

	// err carries a terminal failure (requeue budget exhausted, cluster
	// closed mid-requeue), nil on a completion; the done signal orders the
	// write before the submitter's read.
	err error

	// deadline is the submitter's context deadline (zero when none): the
	// batch former never holds the job past the slack it leaves.
	deadline time.Time

	// span is the request's lifecycle record, written in place: by the
	// submitter side (length, submission time, tokenize, tenant, the
	// dispatch decision, ingress wait) and then by the worker before the
	// done signal (queue wait, exec, batch fields, TTFT, output tokens,
	// total) — the signal orders the worker's writes before deliver reads
	// them.
	span obs.Span

	// maxNew is the request's output token budget (0 = encoder request).
	maxNew int

	// tenant is the resolved tenant record (nil without a registry);
	// window is the SLO class's batch-collection cap in wall time (0 means
	// no per-member opinion).
	tenant *tenant.Tenant
	window time.Duration
}

// jobPool recycles job structs together with their completion channels so
// the steady-state submit path allocates nothing. The buffered channel is
// used for exactly one send and one receive per lease, so a recycled
// channel is always empty.
var jobPool = sync.Pool{
	New: func() any { return &job{done: make(chan struct{}, 1)} },
}

func newJob(length int) *job {
	j := jobPool.Get().(*job)
	j.state.Store(jobPending)
	j.requeues, j.err, j.deadline = 0, nil, time.Time{}
	j.span = obs.Span{Length: length, Enqueued: time.Now()}
	j.maxNew, j.tenant, j.window = 0, nil, 0
	return j
}

type worker struct {
	inst *queue.Instance
	ch   chan *job

	// kill is closed by FailInstance to interrupt the in-flight
	// execution; dead marks the worker crashed so it requeues instead of
	// executing while draining its channel.
	kill chan struct{}
	dead atomic.Bool

	// slow holds the float64 bits of the degraded-mode execution latency
	// multiplier (1.0 = healthy). Read once per executed job.
	slow atomic.Uint64
}

// slowFactor returns the worker's current execution latency multiplier.
func (w *worker) slowFactor() float64 { return math.Float64frombits(w.slow.Load()) }

// health classifies the worker's serving state.
func (w *worker) health() obs.Health {
	if w.dead.Load() {
		return obs.Dead
	}
	if w.slowFactor() != 1 {
		return obs.Degraded
	}
	return obs.Healthy
}

// New starts the cluster's workers.
func New(cfg Config) (*Cluster, error) {
	if _, err := cfg.Profile.CheckAllocation(cfg.InitialAllocation); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Dispatcher == nil {
		return nil, fmt.Errorf("cluster: nil dispatcher factory")
	}
	ml, err := queue.NewMultiLevel(cfg.Profile.MaxLengths())
	if err != nil {
		return nil, err
	}
	disp, err := cfg.Dispatcher(ml)
	if err != nil {
		return nil, err
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	overhead := cfg.Overhead
	if overhead == 0 {
		overhead = 800 * time.Microsecond
	} else if overhead < 0 {
		overhead = 0
	}
	maxBatch := cfg.MaxBatch
	if maxBatch < 1 {
		maxBatch = 1
	}
	batchDelay := cfg.BatchDelay
	if batchDelay < 0 {
		batchDelay = 0
	} else if batchDelay == 0 && maxBatch > 1 {
		// SLO-aware default window: a sliver of the objective, so waiting
		// for followers can never dominate the latency budget.
		batchDelay = cfg.Profile.SLO / 100
	}
	meanOut := cfg.MeanOutTokens
	if meanOut < 1 {
		meanOut = 16
	}
	c := &Cluster{
		cfg:        cfg,
		ml:         ml,
		disp:       disp,
		workers:    make(map[int]*worker),
		failed:     make(map[int]*failedInstance),
		overhead:   overhead,
		scale:      scale,
		maxBatch:   maxBatch,
		batchDelay: batchDelay,
		continuous: cfg.Continuous,
		meanOut:    meanOut,
		rec:        obs.NewRecorder(len(cfg.Profile.Runtimes)),
		tenants:    cfg.Tenants,
	}
	// The profile's runtime boundaries are the recorder's arrival bins, so
	// the control loop reads each period's demand straight off the books;
	// its gauges render this cluster's Snapshot.
	c.rec.SetLengthBins(cfg.Profile.MaxLengths())
	c.rec.SetSnapshot(c.Snapshot)
	c.mu.Lock()
	for rtIdx, n := range cfg.InitialAllocation {
		for k := 0; k < n; k++ {
			if err := c.addWorker(rtIdx); err != nil {
				c.mu.Unlock()
				c.Close()
				return nil, err
			}
		}
	}
	c.mu.Unlock()
	return c, nil
}

// addWorker provisions one worker; caller holds c.mu exclusively.
func (c *Cluster) addWorker(rtIdx int) error {
	rt := c.cfg.Profile.Runtimes[rtIdx]
	// With batching, the instance's congestion ceiling is the batch-aware
	// M_i: the sequential capacity would make Algorithm 1's lambda
	// threshold see congestion at loads a batching instance drains within
	// the SLO, over-demoting into larger runtimes. A continuous-batching
	// instance additionally holds decode slots for many iterations per
	// request, so its ceiling is the generative M_i.
	slots := rt.BatchWithinSLO(c.maxBatch)
	capn := rt.BatchCapacity(slots)
	if c.continuous {
		capn = rt.GenCapacity(slots, c.meanOut)
	}
	inst := &queue.Instance{ID: c.nextID, Runtime: rtIdx, MaxCapacity: capn}
	c.nextID++
	if err := c.ml.Add(inst); err != nil {
		return err
	}
	w := &worker{inst: inst, ch: make(chan *job, workerQueueDepth), kill: make(chan struct{})}
	w.slow.Store(math.Float64bits(1))
	c.workers[inst.ID] = w
	c.wg.Add(1)
	go c.runWorker(w, rt)
	return nil
}

// workerQueueDepth bounds each worker's channel. It is deep enough that
// no workload here has filled it; place never blocks on it, and a full
// channel refuses the job with ErrCongested instead.
const workerQueueDepth = 8192

// Request describes one submission to the cluster.
type Request struct {
	// Length is the tokenized sequence length to dispatch on.
	Length int
	// Tokenize, when set, is the time the caller spent encoding the
	// input; it is folded into the request's span for the full
	// tokenize -> complete decomposition.
	Tokenize time.Duration
	// MaxNewTokens is the generative output budget: the request decodes
	// this many tokens (the prefill yields the first). 0 submits a plain
	// encoder request.
	MaxNewTokens int
	// Tenant identifies the submitting tenant for admission, the
	// dispatched books and the span label. Empty (and any unregistered id)
	// resolves to the "default" tenant; ignored without a tenant registry.
	Tenant string
}

// Result is the outcome of one completed request: its lifecycle span
// (queueing delay, execution time, the dispatch decision), whose Total is
// the end-to-end modeled latency.
type Result struct {
	// Span is the request's lifecycle record.
	Span obs.Span
}

// Submit dispatches one request of the given token length and blocks until
// it completes, returning its modeled latency (queueing + compute +
// overhead). The job and its completion channel come from a pool, so the
// steady-state path is allocation-free. Callers that need the latency
// decomposition or cancellation should use SubmitCtx. No binary calls it;
// it stays as the library's plain blocking entry point.
func (c *Cluster) Submit(length int) (time.Duration, error) {
	res, err := c.SubmitCtx(context.Background(), Request{Length: length})
	if err != nil {
		return 0, err
	}
	return res.Span.Total, nil
}

// SubmitCtx dispatches one request and blocks until it completes or the
// context is done. The context's deadline and cancellation are honored
// while the request is queued: a request whose context fires before
// execution starts is dequeued without running, and one cancelled
// mid-execution is detached (the emulated kernel cannot be interrupted,
// but the caller returns immediately). Both cases return an error
// wrapping ErrDeadlineExceeded and the context's own error.
//
// With a plain background context the path is identical to Submit:
// allocation-free via the job pool.
func (c *Cluster) SubmitCtx(ctx context.Context, req Request) (res Result, err error) {
	j, err := c.lease(ctx, req)
	if err != nil {
		return res, err
	}
	if err := c.submit(ctx, j); err != nil {
		return res, err
	}
	err = c.await(ctx, j, &res)
	return res, err
}

// lease opens one submission — the shared front half of SubmitCtx,
// Ingress.SubmitCtx and SubmitBatch. It books the attempt and its
// arrival in the length's bin (the controller's demand), runs tenant
// admission, and leases a pooled job stamped with the request's
// fields, the context's deadline (the batch former bounds its collection
// window by the slack it leaves) and the tenant's class policy. A context
// that is already done, or an admission refusal, resolves the request
// here with its typed error and its outcome on the books: no job is
// leased and the queue is never touched.
func (c *Cluster) lease(ctx context.Context, req Request) (*job, error) {
	c.rec.RecordSubmit(req.Length)
	if err := ctx.Err(); err != nil {
		c.rec.RecordCancel()
		return nil, cancelErr(err)
	}
	t, err := c.admitTenant(req.Tenant, req.Length+req.MaxNewTokens)
	if err != nil {
		c.rec.RecordReject(obs.RejectRateLimited)
		return nil, err
	}
	j := newJob(req.Length)
	j.span.Tokenize = req.Tokenize
	if req.MaxNewTokens > 0 {
		j.maxNew = req.MaxNewTokens
	}
	j.deadline, _ = ctx.Deadline()
	c.applyTenant(j, t)
	return j, nil
}

// await blocks until a routed job completes or its context fires — the
// shared back half of SubmitCtx, Ingress.SubmitCtx and SubmitBatch. A
// completion is written into *res, which is otherwise left alone: the
// 184-byte Result travels by pointer because on the wire surface this
// chain runs on a fresh goroutine stack per request, where every by-value
// hop is frame the runtime has to grow the stack for. On cancellation
// await races the worker for the job's state: winning the CAS hands
// ownership to whichever goroutine holds the job next (worker, ring
// drain or requeuer), which discards it. A CAS lost to a requeue
// (running -> pending) is retried on the new state; one lost to done
// means the signal is on its way.
func (c *Cluster) await(ctx context.Context, j *job, res *Result) error {
	if ctx.Done() != nil {
		select {
		case <-j.done:
			return c.deliver(j, res)
		case <-ctx.Done():
		}
		for s := j.state.Load(); s != jobDone; s = j.state.Load() {
			if j.state.CompareAndSwap(s, jobCancelled) {
				c.rec.RecordCancel()
				return cancelErr(ctx.Err())
			}
		}
	}
	<-j.done
	return c.deliver(j, res)
}

// deliver resolves a signalled job: a set j.err is its terminal error,
// anything else a completion, whose span is recorded and copied — once —
// into the caller's Result. Either way the job returns to the pool.
func (c *Cluster) deliver(j *job, res *Result) error {
	err := j.err
	if err == nil {
		c.rec.RecordSpan(&j.span)
		res.Span = j.span
	}
	jobPool.Put(j)
	return err
}

// cancelErr maps a context error to the cluster's sentinel while keeping
// the cause inspectable: errors.Is matches ErrDeadlineExceeded and the
// underlying context.Canceled / context.DeadlineExceeded.
func cancelErr(cause error) error {
	return fmt.Errorf("%w: %w", ErrDeadlineExceeded, cause)
}

// rejectReason classifies a submission error for the rejection counter.
func rejectReason(err error) obs.RejectReason {
	switch {
	case errors.Is(err, ErrUnserviceable):
		return obs.RejectUnserviceable
	case errors.Is(err, dispatch.ErrTooLong):
		return obs.RejectTooLong
	case errors.Is(err, dispatch.ErrNoInstances):
		return obs.RejectNoInstances
	case errors.Is(err, ErrCongested):
		return obs.RejectCongested
	case errors.Is(err, ErrClusterClosed):
		return obs.RejectClosed
	case errors.Is(err, ErrDeadlineExceeded):
		// Only the ingress drain rejects on a spent deadline (the direct
		// path surfaces cancellation through RecordCancel instead).
		return obs.RejectDeadline
	case errors.Is(err, tenant.ErrRateLimited):
		return obs.RejectRateLimited
	default:
		return obs.RejectOther
	}
}

// submit places a freshly leased job and books its tenant's dispatched
// cost. On failure the rejection is recorded and the job recycled.
func (c *Cluster) submit(ctx context.Context, j *job) error {
	// Once placed the job belongs to its worker: it can complete and be
	// recycled before route returns, so read the books' fields first.
	t, cost := j.tenant, j.span.Length+j.maxNew
	err := c.route(ctx, j)
	switch {
	case err != nil:
		c.rec.RecordReject(rejectReason(err))
		jobPool.Put(j)
	case t != nil:
		t.RecordDispatched(cost)
	}
	return err
}

// route places one job under the shared topology lock — first submission
// and failure requeue both come through here. Holding the
// lock shared lets submissions run concurrently with each other (the
// queue stripes its own locks) while Close and worker removal are
// excluded — the channel send can never race a close.
func (c *Cluster) route(ctx context.Context, j *job) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClusterClosed
	}
	return c.place(ctx, j)
}

// place is the placement core, the one call site of the dispatch policy:
// dispatch, stamp the decision on the job, record a demotion, and hand the
// job to the chosen worker without blocking. Caller holds c.mu shared and
// has checked c.closed. On success the job belongs to its worker and must
// not be touched again.
func (c *Cluster) place(ctx context.Context, j *job) error {
	t0 := time.Now()
	inst, dec, err := c.disp.DispatchCtx(ctx, j.span.Length)
	if err != nil {
		return err
	}
	sp := &j.span
	sp.Dispatch = time.Since(t0)
	sp.Decision = dec
	if dec.Level > dec.IdealLevel {
		c.rec.RecordDemotion(dec.IdealLevel, dec.Level)
	}
	w := c.workers[inst.ID]
	if w == nil {
		// The dispatcher chose an instance whose worker is gone (a
		// concurrent removal between the queue walk and the pick).
		// Transient — surfaced as congestion so callers retry.
		c.ml.OnComplete(inst)
		return fmt.Errorf("%w: instance %d no longer deployed", ErrCongested, inst.ID)
	}
	select {
	case w.ch <- j:
		return nil
	default:
		// Worker queue overflow: account the drop and fail loudly rather
		// than distorting latency by blocking the caller.
		c.ml.OnComplete(inst)
		return fmt.Errorf("%w: worker %d queue overflow", ErrCongested, inst.ID)
	}
}

// redispatchBackoff separates requeue attempts that failed on a transient
// dispatch error (congestion, no instance up yet mid-recovery) so a
// failure burst does not burn the whole budget in microseconds. It is a
// plain time.Sleep with no alarm beside it, so it lasts until the runtime
// poller's next whole millisecond: 1.08 ms at p50 on an idle 2-CPU Linux
// host (go1.24), not 200 µs.
const redispatchBackoff = 200 * time.Microsecond

// requeueBudget bounds how many times one request is displaced or retried
// before it fails with ErrUnserviceable.
const requeueBudget = queue.DefaultRequeueBudget

// redispatch pushes a failure-displaced job back through the normal
// dispatch path — the failure rule's demotion step (see queue.PickVictim): no
// special placement, the active policy decides, so work from a dead
// small-runtime instance degrades into larger runtimes exactly like a
// congestion demotion. The displacement and every transient retry consume
// one unit of the request's requeue budget, and transient dispatch
// failures (congestion; no instance up yet mid-recovery) retry after a
// backoff; exhaustion, closure and permanent dispatch errors terminate the
// job with a typed error instead of livelocking it.
//
// Runs on the dying worker's goroutine, never on a submitter's.
func (c *Cluster) redispatch(j *job, reason obs.RequeueReason) {
	if j.state.Load() == jobCancelled {
		// The submitter cancelled while the job was queued; it already
		// returned, so the requeuer owns (and discards) the job.
		jobPool.Put(j)
		return
	}
	c.rec.RecordRequeue(reason)
	if j.requeues >= requeueBudget {
		c.failJob(j, fmt.Errorf("%w: displaced %d times (budget %d)",
			ErrUnserviceable, j.requeues, requeueBudget))
		return
	}
	j.requeues++
	for {
		err := c.route(context.Background(), j)
		switch {
		case err == nil:
			return
		case errors.Is(err, ErrClusterClosed), errors.Is(err, dispatch.ErrTooLong):
			c.failJob(j, err)
			return
		case j.requeues >= requeueBudget:
			c.failJob(j, fmt.Errorf("%w: placement retries spent (budget %d): %w",
				ErrUnserviceable, requeueBudget, err))
			return
		}
		j.requeues++
		time.Sleep(redispatchBackoff)
		if j.state.Load() == jobCancelled {
			jobPool.Put(j)
			return
		}
	}
}

// failJob terminates a displaced job with a typed error, delivering it to
// the submitter through the done channel (or discarding the job when the
// submitter cancelled concurrently). The rejection is recorded here so
// the books balance exactly like a synchronous submit failure.
func (c *Cluster) failJob(j *job, err error) {
	if j.state.CompareAndSwap(jobPending, jobDone) {
		j.err = err
		c.rec.RecordReject(rejectReason(err))
		j.done <- struct{}{}
		return
	}
	// Cancelled concurrently: the submitter already returned and counted
	// the cancellation.
	jobPool.Put(j)
}

// Instances returns the current instance count.
func (c *Cluster) Instances() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.workers)
}

// TimeScale returns the factor between modeled and wall time (wall =
// modeled * TimeScale): rates measured on the wall clock divide by it to
// give the modeled-time rates the profile's capacities are stated in.
func (c *Cluster) TimeScale() float64 { return c.scale }

// MaxLength returns the largest max_length across the cluster's deployed
// runtime levels — the longest request the cluster can serve at all.
func (c *Cluster) MaxLength() int {
	maxLens := c.cfg.Profile.MaxLengths()
	return maxLens[len(maxLens)-1]
}

// Recorder returns the cluster's observability recorder: every request
// it resolves is booked there, and its gauges render Snapshot.
func (c *Cluster) Recorder() *obs.Recorder { return c.rec }

// Snapshot captures the cluster's live state at one moment, under one
// shared acquisition of the topology lock: per-level queue depth, instance
// count and summed capacity, and every instance's load and health —
// crashed instances as Dead, with no load, until they rejoin.
func (c *Cluster) Snapshot() obs.Snapshot {
	maxLens := c.cfg.Profile.MaxLengths()
	snap := obs.Snapshot{Levels: make([]obs.LevelStat, len(maxLens))}
	c.mu.RLock()
	for k := range snap.Levels {
		lvl := c.ml.Level(k)
		snap.Levels[k] = obs.LevelStat{
			Level:     k,
			MaxLength: maxLens[k],
			Instances: lvl.Len(),
			Depth:     lvl.Depth(),
		}
		if c.maxBatch > 1 {
			snap.Levels[k].BatchCap = c.cfg.Profile.Runtimes[k].BatchWithinSLO(c.maxBatch)
		}
	}
	snap.Instances = make([]obs.InstanceStat, 0, len(c.workers)+len(c.failed))
	for id, w := range c.workers {
		snap.Levels[w.inst.Runtime].Capacity += w.inst.MaxCapacity
		snap.Instances = append(snap.Instances, obs.InstanceStat{
			ID:          id,
			Runtime:     w.inst.Runtime,
			Outstanding: w.inst.Outstanding(),
			Capacity:    w.inst.MaxCapacity,
			Health:      w.health(),
			SlowFactor:  w.slowFactor(),
		})
	}
	for id, f := range c.failed {
		snap.Instances = append(snap.Instances, obs.InstanceStat{
			ID:       id,
			Runtime:  f.runtime,
			Capacity: f.capacity,
			Health:   obs.Dead,
		})
	}
	c.mu.RUnlock()
	sort.Slice(snap.Instances, func(i, j int) bool {
		return snap.Instances[i].ID < snap.Instances[j].ID
	})
	if c.tenants != nil {
		snap.Tenants = c.tenantSnapshot()
	}
	return snap
}

// Close stops all workers. Pending jobs are completed first.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, w := range c.workers {
		close(w.ch)
	}
	c.mu.Unlock()
	c.wg.Wait()
}
