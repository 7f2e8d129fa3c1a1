// Package sim is the discrete-event cluster simulator (the Go counterpart
// of the paper's ~2000-LoC Python simulator, section 4). It models GPU
// instances executing batch-1 requests sequentially, request dispatching
// through a pluggable policy, the Runtime Scheduler's periodic
// reallocation with ~1 s instance replacement, target-tracking
// auto-scaling, and a fixed 0.8 ms per-request overhead for network and
// host-to-device transfers (section 5.2.1). All randomness lives in the
// trace; the simulation itself is deterministic.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/dispatch"
	"arlo/internal/metrics"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/trace"
)

// DefaultOverhead is the fixed per-request overhead the paper adds in its
// simulator for network and CPU-to-GPU transfer time.
const DefaultOverhead = 800 * time.Microsecond

const (
	// replacementTime is how long an instance swap keeps the GPU offline,
	// also the provisioning time of a scale-out (paper: ~1 s).
	replacementTime = time.Second
	// scalePeriod is the auto-scaler observation interval.
	scalePeriod = time.Second
)

// Config describes one simulation run.
type Config struct {
	// Profile is the offline runtime profile (defines runtimes and SLO).
	Profile *profiler.Profile
	// Trace drives arrivals.
	Trace *trace.Trace
	// InitialAllocation is the starting per-runtime instance counts; its
	// sum is the starting GPU count.
	InitialAllocation []int
	// Dispatcher builds the request-dispatch policy (required).
	Dispatcher dispatch.Factory
	// Allocate is the allocation policy the Runtime Scheduler's step
	// (allocator.Replan) solves with every AllocPeriod; nil disables
	// periodic reallocation (fixed deployment).
	Allocate allocator.Func
	// AllocPeriod is the Runtime Scheduler period (paper: 120 s).
	AllocPeriod time.Duration
	// Overhead is added to every request's latency (default 0.8 ms; set
	// negative to force zero).
	Overhead time.Duration
	// Scaler enables auto-scaling when non-nil; observed every second
	// over a 10 s completion window. Use allocator.AutoScaler for Arlo's
	// target tracking or allocator.HeadroomScaler for the INFaaS-style
	// heuristic the paper equips the baselines with.
	Scaler allocator.Scaler
	// Failures injects instance outages (see Failure).
	Failures []Failure
	// MaxBatch lets an idle instance execute up to B_i queued requests as
	// one batch (sub-linear batch cost, model.BatchScale), where B_i is
	// MaxBatch clamped to the runtime's SLO headroom and the instance's
	// M_i is the batch-aware capacity at B_i, both as in the live cluster.
	// The paper serves at batch size 1 (its latency-sensitive default)
	// and discusses dynamic batching as future work (section 6); values
	// > 1 enable that extension. 0 or 1 means batch size 1.
	MaxBatch int
	// LateBinding holds a request in the central request buffer (the
	// paper's Fig. 3 component (e)) instead of committing it to an
	// instance whose queue already exceeds its SLO capacity; buffered
	// requests are re-dispatched as completions free capacity. Early
	// binding (the default) matches Algorithm 1's behaviour of always
	// dispatching immediately.
	LateBinding bool
}

// AllocationPoint records the per-runtime instance counts at a moment —
// the Fig. 12 time series.
type AllocationPoint struct {
	At time.Duration
	N  []int
}

// Record is what the simulator knows of one trace request.
type Record struct {
	// At is the arrival time; Latency is the end-to-end latency, overhead
	// included (0 until the request completes).
	At, Latency time.Duration
	// Length is the sequence length.
	Length int
	// Decision is the dispatch decision that last committed the request
	// to an instance. Its Instance is -1 while the request is not
	// committed (rejected, parked or buffered).
	dispatch.Decision
}

// Result collects a run's measurements.
type Result struct {
	// Requests holds one record per trace request, indexed like
	// Trace.Requests. A completed record has Instance >= 0.
	Requests []Record
	// Summary is computed over the completed records' latencies against
	// the profile's SLO.
	Summary metrics.Summary
	// Completed and Rejected count requests; Rejected are requests
	// longer than every runtime (never dispatched).
	Completed, Rejected int
	// GPUs tracks the provisioned GPU count over time (auto-scaling).
	GPUs metrics.TimeWeighted
	// TimeWeightedGPUs is GPUs averaged over the trace window.
	TimeWeightedGPUs float64
	// Allocations is the per-runtime allocation time series (Fig. 12).
	Allocations []AllocationPoint
	// Replacements counts instance swaps performed by reallocation.
	Replacements int
	// ScaleOuts and ScaleIns count auto-scaling actions.
	ScaleOuts, ScaleIns int
	// Failures counts injected instance crashes that took effect.
	Failures int
	// BufferedPeak is the largest central-buffer depth observed under
	// late binding (0 without it).
	BufferedPeak int
}

// simInstance is the executor state of one GPU instance.
type simInstance struct {
	sched        *queue.Instance
	fifo         []*Record // dispatched, waiting to execute
	executing    []*Record // the in-flight batch (nil when idle)
	retired      bool      // removed from dispatching; lets executing work finish
	countOnReady bool      // failure recovery: restore s.counts when brought up
}

// Simulator runs one configured simulation.
type Simulator struct {
	cfg       Config
	ml        *queue.MultiLevel
	disp      dispatch.Dispatcher
	tl        timeline
	insts     map[int]*simInstance
	nextID    int
	now       time.Duration
	res       *Result
	counts    []int          // current instance count per runtime (incl. pending swaps)
	binUpper  []int          // runtime max_lengths for demand binning
	arrivals  []int          // arrivals per bin in the current alloc period
	recent    []timedLatency // completion window for autoscaler observations
	overhead  time.Duration
	nextArr   int           // next trace request to schedule (lazy arrivals)
	waiting   []*Record     // requests stalled with no deployable instance
	buffer    []*Record     // late-binding central request buffer (FIFO)
	full      []bool        // per ideal level: a drain attempt failed since the last placement
	lastAlloc time.Duration // when the demand window was last reset
}

type timedLatency struct {
	at  time.Duration
	lat time.Duration
}

// Run executes the simulation and returns its Result.
func Run(cfg Config) (*Result, error) {
	s, err := newSimulator(cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}

func newSimulator(cfg Config) (*Simulator, error) {
	totalGPUs, err := cfg.Profile.CheckAllocation(cfg.InitialAllocation)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.Trace == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if cfg.Dispatcher == nil {
		return nil, fmt.Errorf("sim: nil dispatcher factory")
	}
	if cfg.Allocate != nil && cfg.AllocPeriod <= 0 {
		return nil, fmt.Errorf("sim: periodic allocation requires a positive period")
	}
	if err := validateFailures(cfg.Failures, len(cfg.Profile.Runtimes)); err != nil {
		return nil, err
	}
	overhead := cfg.Overhead
	if overhead == 0 {
		overhead = DefaultOverhead
	} else if overhead < 0 {
		overhead = 0
	}

	ml, err := queue.NewMultiLevel(cfg.Profile.MaxLengths())
	if err != nil {
		return nil, err
	}
	disp, err := cfg.Dispatcher(ml)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:      cfg,
		ml:       ml,
		disp:     disp,
		insts:    make(map[int]*simInstance),
		res:      &Result{Requests: make([]Record, len(cfg.Trace.Requests))},
		counts:   append([]int{}, cfg.InitialAllocation...),
		binUpper: cfg.Profile.MaxLengths(),
		arrivals: make([]int, len(cfg.Profile.Runtimes)),
		full:     make([]bool, len(cfg.Profile.Runtimes)),
		overhead: overhead,
	}
	for rtIdx, n := range cfg.InitialAllocation {
		for k := 0; k < n; k++ {
			s.onInstanceReady(s.newInstance(rtIdx))
		}
	}
	s.res.GPUs.Set(0, float64(totalGPUs))
	s.recordAllocation(0)
	return s, nil
}

func (s *Simulator) run() (*Result, error) {
	// Arrivals are scheduled lazily (one outstanding arrival event at a
	// time) so multi-minute, multi-thousand-req/s traces do not inflate
	// the event heap.
	s.scheduleNextArrival()
	s.scheduleFailures()
	if s.cfg.Allocate != nil {
		s.tl.push(s.cfg.AllocPeriod, evAllocTick, nil, nil)
	}
	if s.cfg.Scaler != nil {
		s.tl.push(scalePeriod, evScaleTick, nil, nil)
	}

	end := s.cfg.Trace.Duration
	for !s.tl.empty() {
		e := s.tl.pop()
		s.now = e.at
		switch e.kind {
		case evArrival:
			s.onArrival(e.req)
		case evCompletion:
			s.onCompletion(e.instance, e.req)
		case evAllocTick:
			if e.at <= end { // stop re-arming past the trace
				s.onAllocTick()
				s.tl.push(e.at+s.cfg.AllocPeriod, evAllocTick, nil, nil)
			}
		case evScaleTick:
			if e.at <= end {
				s.onScaleTick()
				s.tl.push(e.at+scalePeriod, evScaleTick, nil, nil)
			}
		case evInstanceReady:
			s.onInstanceReady(e.instance)
		case evReplace:
			s.replaceOne(e.from, e.to)
		case evFailure:
			s.onFailure(e.failure)
		}
	}
	s.finish()
	return s.res, nil
}

// newInstance builds an instance of runtime rtIdx under a fresh ID, not
// yet registered for dispatching: every instance the simulator deploys,
// initial, provisioned or rejoining, is built here. Its M_i is the live
// cluster's: the batch-aware capacity at the SLO-clamped slot count B_i,
// which is the sequential capacity when B_i is 1.
func (s *Simulator) newInstance(rtIdx int) *simInstance {
	rt := s.cfg.Profile.Runtimes[rtIdx]
	capn := rt.BatchCapacity(rt.BatchWithinSLO(s.cfg.MaxBatch))
	si := &simInstance{sched: &queue.Instance{ID: s.nextID, Runtime: rtIdx, MaxCapacity: capn}}
	s.nextID++
	return si
}

// provision brings a new instance of runtime rtIdx up after the given
// delay: a replacement, a scale-out or a failed GPU's rejoin. countOnReady
// restores s.counts and the GPU count when it comes up (a rejoin; the
// other two book them when they are decided).
func (s *Simulator) provision(rtIdx int, after time.Duration, countOnReady bool) {
	si := s.newInstance(rtIdx)
	si.countOnReady = countOnReady
	s.tl.push(s.now+after, evInstanceReady, nil, si)
}

// pick applies one instance rule over the active instances (those
// registered for dispatching) and maps its choice back to the
// simInstance, or nil when none matches. The rules are the live
// cluster's: queue.PickVictim for a crash, queue.PickIdlest for a graceful
// removal.
func (s *Simulator) pick(rule func([]*queue.Instance, int) *queue.Instance, rtIdx int) *simInstance {
	if chosen := rule(s.ml.Instances(), rtIdx); chosen != nil {
		return s.insts[chosen.ID]
	}
	return nil
}

// scheduleNextArrival pushes the next trace request onto the timeline.
func (s *Simulator) scheduleNextArrival() {
	if s.nextArr >= len(s.cfg.Trace.Requests) {
		return
	}
	r := &s.cfg.Trace.Requests[s.nextArr]
	req := &s.res.Requests[s.nextArr]
	*req = Record{At: r.At, Length: r.Length, Decision: dispatch.Decision{Instance: -1}}
	s.nextArr++
	s.tl.push(r.At, evArrival, req, nil)
}

// onArrival dispatches a request (or rejects an over-long one).
func (s *Simulator) onArrival(req *Record) {
	s.scheduleNextArrival()
	if bin := trace.BinOf(s.binUpper, req.Length); bin >= 0 {
		s.arrivals[bin]++
	}
	s.dispatchRequest(req)
}

func (s *Simulator) dispatchRequest(req *Record) {
	req.Instance = -1 // until committed below
	in, dec, err := s.disp.DispatchCtx(context.Background(), req.Length)
	if err != nil {
		if errors.Is(err, dispatch.ErrTooLong) {
			s.res.Rejected++
			return
		}
		// No instance is deployable right now (e.g. mid-replacement):
		// park the request; it is re-dispatched when an instance comes up.
		s.waiting = append(s.waiting, req)
		return
	}
	if s.cfg.LateBinding && in.Outstanding() > in.MaxCapacity {
		// Every candidate is past its SLO capacity (the dispatcher picked
		// this one as the best available): hold the request centrally and
		// bind it when capacity frees up, rather than committing it to a
		// queue it cannot clear in time.
		s.ml.OnComplete(in) // revert the dispatch accounting
		s.buffer = append(s.buffer, req)
		if len(s.buffer) > s.res.BufferedPeak {
			s.res.BufferedPeak = len(s.buffer)
		}
		return
	}
	s.commit(in, dec, req)
}

// commit appends req to the chosen instance's queue, books the dispatch
// decision in its record, and starts the instance if it is idle.
func (s *Simulator) commit(in *queue.Instance, dec dispatch.Decision, req *Record) {
	req.Decision = dec
	si := s.insts[in.ID]
	si.fifo = append(si.fifo, req)
	s.maybeStart(si)
}

// drainBuffer re-attempts dispatch for buffered requests in FIFO order,
// scanning past head-of-line requests whose candidates are still full
// (bounded so a deep buffer cannot stall the event loop). A dispatcher's
// choice depends only on the level fronts and the request's ideal level,
// so once an attempt at an ideal level fails, every later request of that
// level fails the same way until a placement moves a front: it is kept
// without a second attempt.
func (s *Simulator) drainBuffer() {
	if len(s.buffer) == 0 {
		return
	}
	const scanLimit = 64
	kept := s.buffer[:0]
	placed := 0
	clear(s.full)
	for i, req := range s.buffer {
		if i >= scanLimit && placed == 0 {
			kept = append(kept, s.buffer[i:]...)
			break
		}
		if ideal := s.ml.CandidateLevels(req.Length)[0]; !s.full[ideal] {
			in, dec, err := s.disp.DispatchCtx(context.Background(), req.Length)
			if err == nil && in.Outstanding() <= in.MaxCapacity {
				s.commit(in, dec, req)
				placed++
				clear(s.full)
				continue
			}
			if err == nil {
				s.ml.OnComplete(in) // revert the dispatch accounting
			}
			s.full[ideal] = true
		}
		kept = append(kept, req)
	}
	s.buffer = kept
}

// maybeStart begins executing the instance's next batch when idle: up to
// B_i queued requests run together at the sub-linear batch cost, where B_i
// is MaxBatch clamped to the runtime's SLO headroom exactly as the live
// cluster's worker clamps its slot count (Runtime.BatchWithinSLO).
func (s *Simulator) maybeStart(si *simInstance) {
	if si.executing != nil || len(si.fifo) == 0 {
		return
	}
	rt := s.cfg.Profile.Runtimes[si.sched.Runtime]
	take := min(rt.BatchWithinSLO(s.cfg.MaxBatch), len(si.fifo))
	batch := si.fifo[:take:take]
	si.fifo = si.fifo[take:]
	si.executing = batch
	var cost time.Duration
	if take == 1 {
		cost = rt.CostOf(batch[0].Length)
	} else {
		lengths := make([]int, take)
		for i, r := range batch {
			lengths[i] = r.Length
		}
		cost = rt.BatchCostOf(lengths)
	}
	s.tl.push(s.now+cost, evCompletion, batch[0], si)
}

// onCompletion finishes the executing batch and starts the next. A
// completion whose lead request no longer matches the instance's
// executing batch is stale (the instance crashed mid-execution and the
// work was re-dispatched elsewhere) and is ignored.
func (s *Simulator) onCompletion(si *simInstance, lead *Record) {
	if len(si.executing) == 0 || si.executing[0] != lead {
		return
	}
	batch := si.executing
	si.executing = nil
	for _, req := range batch {
		req.Latency = s.now - req.At + s.overhead
		s.res.Completed++
		if s.cfg.Scaler != nil {
			s.recent = append(s.recent, timedLatency{at: s.now, lat: req.Latency})
		}
		s.ml.OnComplete(si.sched) // harmless when the instance is retired
	}
	if si.retired && si.executing == nil && len(si.fifo) == 0 {
		delete(s.insts, si.sched.ID)
		return
	}
	if s.cfg.LateBinding {
		s.drainBuffer()
	}
	s.maybeStart(si)
}

// onAllocTick runs the Runtime Scheduler: estimate demand from the
// arrivals of the elapsed window and take one allocator.Replan step,
// applying its plan whole. It runs on the decision period and — per the
// paper's "automatically adapt to the length distribution with scaled
// resources" — immediately after every auto-scaling action.
func (s *Simulator) onAllocTick() {
	if s.cfg.Allocate == nil {
		return
	}
	slo := s.cfg.Profile.SLO
	elapsed := s.now - s.lastAlloc
	if elapsed < slo {
		return // window too short to estimate demand
	}
	q := trace.PerWindow(s.arrivals, elapsed, slo, 1)
	idle := !slices.ContainsFunc(s.arrivals, func(c int) bool { return c > 0 })
	clear(s.arrivals)
	s.lastAlloc = s.now
	if idle {
		return // an idle window says nothing; keep the deployment
	}
	target, plan, _, err := allocator.Replan(s.cfg.Allocate, s.cfg.Profile, s.counts, q, 0, 0)
	if err != nil {
		return // keep the current deployment on solver failure
	}
	// Roll the plan out in small batches (section 4): each batch starts
	// when the previous batch's replacements complete, so only a couple
	// of GPUs are ever offline at once.
	const batchSize = 2
	for bi, batch := range allocator.Batches(plan, batchSize) {
		start := s.now + time.Duration(bi)*replacementTime
		for _, rep := range batch {
			s.tl.pushReplace(start, rep.From, rep.To)
		}
	}
	copy(s.counts, target.N)
	s.recordAllocation(s.now)
}

// replaceOne retires the least-loaded instance of runtime from
// (queue.PickIdlest) and provisions one of runtime to after the
// replacement delay. Queued (not yet executing) requests of the retired
// instance are re-dispatched.
func (s *Simulator) replaceOne(from, to int) {
	victim := s.pick(queue.PickIdlest, from)
	if victim == nil {
		return
	}
	s.retire(victim)
	s.res.Replacements++
	s.provision(to, replacementTime, false)
}

// retire removes an instance from dispatching and re-dispatches its
// queued requests; the executing request (if any) runs to completion.
func (s *Simulator) retire(si *simInstance) {
	s.ml.Remove(si.sched.ID)
	si.retired = true
	queued := si.fifo
	si.fifo = nil
	// The retired instance's outstanding count drops to just the
	// executing request.
	if o := si.sched.Outstanding() - len(queued); o > 0 {
		si.sched.SetOutstanding(o)
	} else {
		si.sched.SetOutstanding(0)
	}
	if si.executing == nil {
		delete(s.insts, si.sched.ID)
	}
	for _, req := range queued {
		s.dispatchRequest(req)
	}
}

// onInstanceReady brings an instance online (initial, provisioned,
// replacing or rejoining) and re-dispatches any requests that were stalled
// with no instance available.
func (s *Simulator) onInstanceReady(si *simInstance) {
	if err := s.ml.Add(si.sched); err != nil {
		return
	}
	s.insts[si.sched.ID] = si
	if si.countOnReady {
		si.countOnReady = false
		s.counts[si.sched.Runtime]++
		s.res.GPUs.Set(s.now, s.res.GPUs.Last()+1)
	}
	if len(s.waiting) > 0 {
		stalled := s.waiting
		s.waiting = nil
		for _, req := range stalled {
			s.dispatchRequest(req)
		}
	}
}

// onScaleTick observes the recent completion window and applies the
// auto-scaler's decision (section 4): scale-out adds a max-length
// instance, scale-in retires the least busy instance.
func (s *Simulator) onScaleTick() {
	window := 10 * time.Second
	cut := s.now - window
	keep := s.recent[:0]
	for _, tl := range s.recent {
		if tl.at >= cut {
			keep = append(keep, tl)
		}
	}
	s.recent = keep
	if len(s.recent) == 0 {
		return
	}
	lats := make([]time.Duration, len(s.recent))
	for i, tl := range s.recent {
		lats[i] = tl.lat
	}
	slices.Sort(lats)
	p98 := metrics.Quantile(lats, 0.98)
	g := 0
	for _, n := range s.counts {
		g += n
	}
	switch s.cfg.Scaler.ObserveLoad(s.now, p98, s.utilization(), g) {
	case allocator.ScaleOut:
		last := len(s.counts) - 1
		s.counts[last]++
		s.res.ScaleOuts++
		s.provision(last, replacementTime, false)
		s.res.GPUs.Set(s.now, float64(g+1))
		s.recordAllocation(s.now)
		s.onAllocTick() // rebalance runtimes for the new cluster size
	case allocator.ScaleIn:
		victim := s.pick(queue.PickIdlest, -1)
		if victim == nil {
			return
		}
		s.counts[victim.sched.Runtime]--
		s.res.ScaleIns++
		s.retire(victim)
		s.res.GPUs.Set(s.now, float64(g-1))
		s.recordAllocation(s.now)
		s.onAllocTick()
	}
}

// utilization returns the cluster-wide queue utilization: outstanding
// requests over the instances' aggregate SLO capacity.
func (s *Simulator) utilization() float64 {
	outstanding, capacity := 0, 0
	for _, in := range s.ml.Instances() {
		outstanding += in.Outstanding()
		capacity += in.MaxCapacity
	}
	if capacity == 0 {
		return 1
	}
	return float64(outstanding) / float64(capacity)
}

func (s *Simulator) recordAllocation(at time.Duration) {
	s.res.Allocations = append(s.res.Allocations, AllocationPoint{
		At: at,
		N:  append([]int{}, s.counts...),
	})
}

func (s *Simulator) finish() {
	lats := make([]time.Duration, 0, s.res.Completed)
	for _, r := range s.res.Requests {
		if r.Instance >= 0 {
			lats = append(lats, r.Latency)
		}
	}
	s.res.Summary = metrics.Summarize(lats, s.cfg.Profile.SLO)
	s.res.TimeWeightedGPUs = s.res.GPUs.Average(s.cfg.Trace.Duration)
}
