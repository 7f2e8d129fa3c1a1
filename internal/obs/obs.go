// Package obs is the request-lifecycle observability plane of the Arlo
// reproduction: every request carries a Span that records where its time
// went (tokenize -> dispatch decision -> worker queue -> execution ->
// completion) and which Algorithm 1 decisions were taken along the way
// (ideal vs. chosen runtime level, peeked levels, congestion fallback).
// The paper's whole evaluation (Figs. 8-10) is a per-request latency
// decomposition; this package is what makes that decomposition available
// from a live serving deployment instead of only from the simulator.
//
// A Recorder aggregates spans into counters, a demotion matrix and
// latency histograms, and renders everything in Prometheus text format
// (see prom.go). Every cluster owns exactly one Recorder, built with it.
// The recording side is built for the dispatch hot path:
//
//   - histograms are lock-striped over fixed shards of atomic bucket
//     counters, with the stripe chosen from per-span fields (instance id +
//     length) so concurrent recorders do not share a cache line and no
//     shared cursor is contended;
//   - nothing on the record path allocates: spans live inside the
//     caller's pooled job structs and bucket indexing is a bit scan.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Span is the lifecycle record of one request. All durations are in the
// cluster's modeled time (un-scaled when the cluster compresses wall
// time). A Span is plain data: it is embedded by value in results and
// pooled job structs, never allocated by this package.
type Span struct {
	// Length is the tokenized sequence length the request was dispatched
	// on.
	Length int
	// Enqueued is the wall-clock submission time.
	Enqueued time.Time
	// Tokenize is the time spent encoding the input upstream of the
	// cluster (zero when the caller submitted raw lengths).
	Tokenize time.Duration
	// Route is the time a routing tier spent choosing a shard for the
	// request, including any reroute hops (zero in single-process
	// serving, where no router fronts the cluster).
	Route time.Duration
	// Dispatch is the time spent inside the dispatch decision itself.
	Dispatch time.Duration
	// Queue is the time from dispatch to execution start — the queueing
	// delay of Fig. 8's decomposition.
	Queue time.Duration
	// Exec is the emulated kernel execution time.
	Exec time.Duration
	// Total is the end-to-end modeled latency (queue + exec + overhead).
	Total time.Duration
	// IdealLevel is the least-padding feasible runtime level (the head of
	// the Algorithm 1 candidate set).
	IdealLevel int
	// Level is the runtime level the request actually executed on;
	// Level > IdealLevel means the request was demoted.
	Level int
	// Instance is the ID of the instance that executed the request.
	Instance int
	// Peeked is how many candidate levels the scheduler examined.
	Peeked int
	// Fallback reports that every peeked level was congested and the
	// scheduler fell back to the top candidate (Algorithm 1 lines 18-20).
	Fallback bool
	// Batch is the cluster-wide sequence number of the batched kernel the
	// request executed in (0 when it ran as a sequential singleton): spans
	// sharing a Batch value rode the same kernel.
	Batch int64
	// BatchSize is how many requests shared that kernel (0 when the request
	// was not batched).
	BatchSize int
	// FormWait is how long the batch former held the request's batch open
	// collecting followers — the batching tax inside Queue.
	FormWait time.Duration
	// IngressWait is how long the request sat in the ingress submit ring
	// before its group was drained and dispatched (0 when submitted
	// directly). Unlike the other stages it is measured in wall time: the
	// ring lives upstream of the cluster's modeled clock.
	IngressWait time.Duration
	// OutTokens is how many tokens the request generated (0 for encoder
	// requests, >= 1 for generative ones).
	OutTokens int
	// TTFT is the time from submission to the request's first generated
	// token — the end of its prefill iteration. Zero for encoder requests,
	// whose only "token" is the classification result at Total.
	TTFT time.Duration
	// Tenant is the resolved tenant the request was accounted to (empty
	// when the cluster runs without a tenant registry).
	Tenant string
}

// TPOT is the mean time per output token after the first (the decode-side
// latency axis of generative serving). Zero when the request generated at
// most one token.
func (s *Span) TPOT() time.Duration {
	if s.OutTokens <= 1 || s.TTFT <= 0 || s.Total <= s.TTFT {
		return 0
	}
	return (s.Total - s.TTFT) / time.Duration(s.OutTokens-1)
}

// DemotionHops is how many levels past the ideal runtime the request was
// pushed (0 when served at its ideal level).
func (s *Span) DemotionHops() int {
	if h := s.Level - s.IdealLevel; h > 0 {
		return h
	}
	return 0
}

// RejectReason classifies why a submission was refused.
type RejectReason uint8

const (
	// RejectTooLong: the request exceeds every deployed runtime.
	RejectTooLong RejectReason = iota
	// RejectNoInstances: no instance deployed for any candidate runtime.
	RejectNoInstances
	// RejectCongested: the chosen worker's queue overflowed.
	RejectCongested
	// RejectClosed: the cluster was shut down.
	RejectClosed
	// RejectUnserviceable: the request exhausted its requeue budget under
	// repeated instance failures.
	RejectUnserviceable
	// RejectDeadline: the request's deadline was already spent when its
	// ingress group was drained; it was refused before touching the queue.
	RejectDeadline
	// RejectRateLimited: tenant token-bucket admission refused the request
	// before it touched the queue.
	RejectRateLimited
	// RejectOther: any other submission failure.
	RejectOther

	numRejectReasons
)

// String returns the Prometheus label value for the reason.
func (r RejectReason) String() string {
	switch r {
	case RejectTooLong:
		return "too_long"
	case RejectNoInstances:
		return "no_instances"
	case RejectCongested:
		return "congested"
	case RejectClosed:
		return "closed"
	case RejectUnserviceable:
		return "unserviceable"
	case RejectDeadline:
		return "deadline"
	case RejectRateLimited:
		return "rate_limited"
	default:
		return "other"
	}
}

// Health classifies an instance's serving state for the health gauge:
// Healthy serves at full speed, Degraded serves with inflated execution
// latency (a slow GPU, thermal throttling, a noisy neighbour), Dead is
// crashed and detached from dispatching until its downtime elapses.
type Health int32

const (
	// Dead: crashed; detached from its queue level, queued and in-flight
	// work requeued elsewhere.
	Dead Health = iota
	// Degraded: still dispatched to, but executing slower than profiled.
	Degraded
	// Healthy: serving at the profiled latency.
	Healthy
)

// String returns the human-readable state name.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	default:
		return "dead"
	}
}

// GaugeValue renders the state for the arlo_instance_health gauge:
// 2 healthy, 1 degraded, 0 dead — ordered so alerting rules can threshold
// on "< 2".
func (h Health) GaugeValue() int { return int(h) }

// RequeueReason classifies why a dispatched request was requeued through
// the failover demotion path.
type RequeueReason uint8

const (
	// RequeueQueued: the request was queued on an instance that failed.
	RequeueQueued RequeueReason = iota
	// RequeueInflight: the request was executing when its instance failed;
	// it restarts from scratch elsewhere.
	RequeueInflight

	numRequeueReasons
)

// String returns the Prometheus label value for the reason.
func (r RequeueReason) String() string {
	switch r {
	case RequeueInflight:
		return "inflight"
	default:
		return "queued"
	}
}

// Histogram bucket layout: exponential, le = 125µs << i for the finite
// buckets plus a +Inf overflow slot. 125µs..~65.5s covers everything from
// the 0.8ms dispatch overhead to deeply congested tails.
const (
	histBase      = 125 * time.Microsecond
	numBuckets    = 20
	bucketInf     = numBuckets // index of the +Inf slot
	histShards    = 8          // power of two; stripe count per histogram
	histShardMask = histShards - 1
)

// bucketOf returns the finite bucket index for d, or bucketInf when d
// exceeds the largest finite boundary. Branch-free except the clamps.
func bucketOf(d time.Duration) int {
	if d <= histBase {
		return 0
	}
	// 2^(i-1) < d/base <= 2^i  =>  bucket i.
	idx := bits.Len64(uint64((d - 1) / histBase))
	if idx > numBuckets-1 {
		return bucketInf
	}
	return idx
}

// bucketLE returns the upper boundary of finite bucket i in seconds.
func bucketLE(i int) float64 {
	return float64(histBase<<uint(i)) / float64(time.Second)
}

// histShard is one stripe of a histogram. At ~180 bytes a shard spans
// multiple cache lines on its own, so neighbouring shards only ever share
// an edge line; the stripe choice (below) keeps concurrent writers apart.
type histShard struct {
	buckets [numBuckets + 1]atomic.Int64
	sumNS   atomic.Int64
	count   atomic.Int64
}

// hist is a lock-striped histogram: writers pick a shard from per-span
// data, readers sum across shards at scrape time.
type hist struct {
	shards [histShards]histShard
}

func (h *hist) observe(shard int, d time.Duration) {
	s := &h.shards[shard&histShardMask]
	s.buckets[bucketOf(d)].Add(1)
	s.sumNS.Add(int64(d))
	s.count.Add(1)
}

// snapshot sums the shards into cumulative bucket counts, total count and
// sum (seconds).
func (h *hist) snapshot() (cum [numBuckets + 1]int64, count int64, sumSec float64) {
	var sumNS int64
	for i := range h.shards {
		s := &h.shards[i]
		for b := 0; b <= numBuckets; b++ {
			cum[b] += s.buckets[b].Load()
		}
		count += s.count.Load()
		sumNS += s.sumNS.Load()
	}
	for b := 1; b <= numBuckets; b++ {
		cum[b] += cum[b-1]
	}
	return cum, count, float64(sumNS) / float64(time.Second)
}

// Recorder aggregates request spans for one cluster. All recording
// methods are safe for concurrent use.
type Recorder struct {
	levels int

	submitted atomic.Int64
	completed atomic.Int64
	cancelled atomic.Int64
	rejected  [numRejectReasons]atomic.Int64
	requeues  [numRequeueReasons]atomic.Int64

	// demotions is the (from, to) runtime-pair counter matrix of
	// Algorithm 1 demotions, flattened row-major: from*levels + to.
	demotions []atomic.Int64

	queueH       hist
	execH        hist
	totalH       hist
	formWaitH    hist
	ingressWaitH hist
	ttftH        hist
	tpotH        hist

	// Batch formation aggregates: batches counts executed batches,
	// batchedReqs their member totals; the per-level pairs feed the
	// occupancy gauge (mean batch size vs. the profiled cap B_i).
	batches        atomic.Int64
	batchedReqs    atomic.Int64
	batchSizeB     [numBatchBuckets + 1]atomic.Int64
	levelBatches   []atomic.Int64
	levelBatchReqs []atomic.Int64

	// snapshot, when set, provides the live cluster state (queue depths,
	// instance loads) gauges are rendered from at scrape time: the owning
	// cluster's Snapshot.
	snapshot atomic.Pointer[func() Snapshot]

	// ctrlStats, when set, provides the control loop's state rendered as
	// arlo_controller_* metrics at scrape time (see window.go).
	ctrlStats atomic.Pointer[func() ControllerStat]

	// win is the sliding-window view of recent lengths and latencies the
	// controller reads (see window.go).
	win window
}

// NewRecorder builds a recorder for a cluster with the given number of
// runtime levels (used to size the demotion matrix; levels < 1 is
// clamped to 1).
func NewRecorder(levels int) *Recorder {
	if levels < 1 {
		levels = 1
	}
	r := &Recorder{
		levels:         levels,
		demotions:      make([]atomic.Int64, levels*levels),
		levelBatches:   make([]atomic.Int64, levels),
		levelBatchReqs: make([]atomic.Int64, levels),
	}
	r.win.init(levels)
	return r
}

// Batch-size histogram layout: power-of-two buckets le 1,2,4,...,64 plus
// +Inf — batch caps are small integers, so seven finite buckets cover any
// plausible B_i.
const numBatchBuckets = 7

// batchBucketOf returns the finite bucket index for a batch size, or
// numBatchBuckets for the +Inf slot.
func batchBucketOf(size int) int {
	if size <= 1 {
		return 0
	}
	idx := bits.Len64(uint64(size - 1))
	if idx > numBatchBuckets-1 {
		return numBatchBuckets
	}
	return idx
}

// batchBucketLE returns the upper boundary of finite batch bucket i.
func batchBucketLE(i int) int { return 1 << uint(i) }

// RecordBatch counts one executed batch of the given member count on the
// given runtime level. Out-of-range levels still count toward the global
// aggregates so the books stay consistent.
func (r *Recorder) RecordBatch(level, size int) {
	if size < 1 {
		return
	}
	r.batches.Add(1)
	r.batchedReqs.Add(int64(size))
	r.batchSizeB[batchBucketOf(size)].Add(1)
	if level >= 0 && level < r.levels {
		r.levelBatches[level].Add(1)
		r.levelBatchReqs[level].Add(int64(size))
	}
}

// Batches returns the total executed batches recorded.
func (r *Recorder) Batches() int64 { return r.batches.Load() }

// BatchedRequests returns the total requests executed inside batches.
// Only tests call it: they read the batch books through it.
func (r *Recorder) BatchedRequests() int64 { return r.batchedReqs.Load() }

// MeanBatchSize returns the mean members-per-batch for one runtime level
// (0 when the level has executed no batches, or on an out-of-range level).
func (r *Recorder) MeanBatchSize(level int) float64 {
	if level < 0 || level >= r.levels {
		return 0
	}
	n := r.levelBatches[level].Load()
	if n == 0 {
		return 0
	}
	return float64(r.levelBatchReqs[level].Load()) / float64(n)
}

// RecordSubmit counts one submission attempt.
func (r *Recorder) RecordSubmit() { r.submitted.Add(1) }

// RecordDemotion counts one Algorithm 1 demotion from the ideal runtime
// level to the chosen one. Out-of-range pairs are dropped.
func (r *Recorder) RecordDemotion(from, to int) {
	if from < 0 || to < 0 || from >= r.levels || to >= r.levels {
		return
	}
	r.demotions[from*r.levels+to].Add(1)
}

// RecordSpan folds one completed request's span into the histograms,
// the completion counter, and the sliding window (stamped now). The span
// itself is not retained.
func (r *Recorder) RecordSpan(s *Span) {
	r.recordSpan(s)
	r.win.observe(s, time.Now())
}

// recordSpan folds the span into the lifetime aggregates only.
func (r *Recorder) recordSpan(s *Span) {
	// Stripe by span identity rather than a shared cursor: concurrent
	// completions from different instances land on different shards with
	// no cross-core traffic on the shard choice itself.
	shard := s.Instance + s.Length
	r.queueH.observe(shard, s.Queue)
	r.execH.observe(shard, s.Exec)
	r.totalH.observe(shard, s.Total)
	if s.BatchSize > 0 {
		r.formWaitH.observe(shard, s.FormWait)
	}
	if s.IngressWait > 0 {
		r.ingressWaitH.observe(shard, s.IngressWait)
	}
	if s.OutTokens > 0 && s.TTFT > 0 {
		r.ttftH.observe(shard, s.TTFT)
		if tpot := s.TPOT(); tpot > 0 {
			r.tpotH.observe(shard, tpot)
		}
	}
	r.completed.Add(1)
}

// RecordCancel counts one request cancelled (context done) while queued
// or executing.
func (r *Recorder) RecordCancel() { r.cancelled.Add(1) }

// RecordReject counts one refused submission.
func (r *Recorder) RecordReject(reason RejectReason) {
	if reason >= numRejectReasons {
		reason = RejectOther
	}
	r.rejected[reason].Add(1)
}

// RecordRequeue counts one request displaced by an instance failure and
// re-dispatched through the failover demotion path.
func (r *Recorder) RecordRequeue(reason RequeueReason) {
	if reason >= numRequeueReasons {
		reason = RequeueQueued
	}
	r.requeues[reason].Add(1)
}

// SetSnapshot installs the live-state callback rendered into gauges at
// scrape time (per-level queue depth, per-instance utilization); a cluster
// installs its own Snapshot when it builds its recorder. Safe to call while
// recording.
func (r *Recorder) SetSnapshot(fn func() Snapshot) { r.snapshot.Store(&fn) }

// Submitted returns the total submission attempts recorded.
func (r *Recorder) Submitted() int64 { return r.submitted.Load() }

// Completed returns the total completed requests recorded.
func (r *Recorder) Completed() int64 { return r.completed.Load() }

// Cancelled returns the total cancelled requests recorded.
func (r *Recorder) Cancelled() int64 { return r.cancelled.Load() }

// Rejected returns the total rejected submissions across all reasons.
func (r *Recorder) Rejected() int64 {
	var total int64
	for i := range r.rejected {
		total += r.rejected[i].Load()
	}
	return total
}

// Requeues returns the total failure-displaced requeues across all
// reasons.
func (r *Recorder) Requeues() int64 {
	var total int64
	for i := range r.requeues {
		total += r.requeues[i].Load()
	}
	return total
}

// RequeuesFor returns the requeue count for one reason.
func (r *Recorder) RequeuesFor(reason RequeueReason) int64 {
	if reason >= numRequeueReasons {
		return 0
	}
	return r.requeues[reason].Load()
}

// RejectedFor returns the rejection count for one reason.
func (r *Recorder) RejectedFor(reason RejectReason) int64 {
	if reason >= numRejectReasons {
		return 0
	}
	return r.rejected[reason].Load()
}

// Demotions returns the demotion count for one (from, to) runtime pair.
// Only tests call it: they read the demotion books through it.
func (r *Recorder) Demotions(from, to int) int64 {
	if from < 0 || to < 0 || from >= r.levels || to >= r.levels {
		return 0
	}
	return r.demotions[from*r.levels+to].Load()
}
