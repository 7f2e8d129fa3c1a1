// Package controller closes the paper's control loop on the live cluster:
// the Runtime Scheduler's allocation program (Eqs. 1-7) and the section 4
// target-tracking autoscaler, until now only exercised inside simulator
// experiments, run here against the serving topology itself.
//
// Every control period the loop reads the observed request-length
// distribution and p98 latency from the obs plane's sliding window,
// re-solves the allocation program for the current GPU count, diffs the
// result against the live topology, and applies the minimal-replacement
// plan through the cluster's Replace path. A separate, faster loop feeds
// the autoscaler (target-tracking on p98, or utilization headroom) and
// grows or shrinks the GPU pool through AddInstance/RemoveInstance. Three
// dampers keep the loop from thrashing, mirroring the k8s-HPA
// desired/current pattern:
//
//   - hysteresis: a plan is applied only when the solver's objective beats
//     the current topology's objective by a configurable margin, so noise
//     around an optimum does not churn instances;
//   - a max-replacements-per-period budget: large drifts converge over
//     several periods instead of restarting half the fleet at once;
//   - dry-run mode: observe, solve and record without touching topology.
//
// Determinism is a design constraint, not an afterthought: Step and
// Autoscale take explicit timestamps and do all their work synchronously,
// so the convergence test suite drives the loop with a fake clock and
// seeded traces — Start merely wraps the same methods in wall-clock
// tickers for production use.
package controller

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/cluster"
	"arlo/internal/obs"
)

// Defaults for Options' zero values, and the autoscaler's fixed tick.
const (
	// DefaultPeriod is the replanning interval: frequent enough to track
	// minute-scale drift, infrequent enough that the observation window
	// fully refreshes between solves.
	DefaultPeriod = 15 * time.Second
	// ScalePeriod is the autoscaler observation interval (the paper
	// evaluates the target tracker on second-scale ticks).
	ScalePeriod = time.Second
	// DefaultMaxReplacements bounds topology churn per control period.
	DefaultMaxReplacements = 4
	// DefaultHysteresis is the minimum fractional objective improvement a
	// plan must promise before it is applied.
	DefaultHysteresis = 0.05
)

// Options tune the control loop. The zero value is usable: paper-shaped
// defaults are filled in by New.
type Options struct {
	// Period is the replanning interval (default DefaultPeriod).
	Period time.Duration
	// Scaler decides the total GPU count; nil disables autoscaling and the
	// loop only replans the split across runtimes.
	Scaler allocator.Scaler
	// MaxReplacements caps replacements applied per period (0 means
	// DefaultMaxReplacements; negative means unlimited).
	MaxReplacements int
	// Hysteresis is the fractional objective improvement required before a
	// replacement plan is applied (0 means DefaultHysteresis; negative
	// means none — every non-empty plan is applied). Only tests set it (six
	// controller tests and two chaos sweeps, all but one to run with none);
	// it stays because restating them on the shipped 5% is its own change.
	Hysteresis float64
	// DryRun observes, solves and records decisions without mutating the
	// cluster.
	DryRun bool
}

// Controller runs the closed loop over one cluster. Create with New; all
// exported methods are safe for concurrent use.
type Controller struct {
	cl     *cluster.Cluster
	solver *allocator.Solver
	rec    *obs.Recorder
	opts   Options

	// mu serializes control decisions (Step, Autoscale, Status snapshots
	// of planning state) against each other; cluster mutation methods do
	// their own locking.
	mu         sync.Mutex
	epochSet   bool
	epoch      time.Time
	lastDemand []float64
	lastTarget []int
	lastErr    string

	replans      atomic.Int64
	plansHeld    atomic.Int64
	replacements atomic.Int64
	scaleOuts    atomic.Int64
	scaleIns     atomic.Int64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StepResult reports what one control period decided, for tests and logs.
type StepResult struct {
	// Replanned reports the allocation program was solved this period
	// (false when the window held no observations).
	Replanned bool
	// Held reports hysteresis suppressed a non-empty plan.
	Held bool
	// Target is the solved per-runtime instance counts.
	Target []int
	// Plan is the minimal replacement plan toward Target, already
	// truncated to the per-period budget.
	Plan []allocator.Replacement
	// Applied is how many replacements were executed (0 in dry-run).
	Applied int
	// Err is the solve or diff error, if any; the loop retries next
	// period.
	Err error
}

// New builds a controller over the cluster, solver and recorder. The
// recorder must be the cluster's observer (or at least fed the same
// traffic) — it is where the loop reads its demand and latency signals.
// The controller installs itself as the recorder's controller-stats
// source for the arlo_controller_* metrics.
func New(cl *cluster.Cluster, solver *allocator.Solver, rec *obs.Recorder, opts Options) (*Controller, error) {
	if cl == nil {
		return nil, errors.New("controller: nil cluster")
	}
	if solver == nil || solver.Profile == nil {
		return nil, errors.New("controller: nil solver")
	}
	if rec == nil {
		return nil, errors.New("controller: nil recorder (the loop is blind without the obs plane)")
	}
	if opts.Period <= 0 {
		opts.Period = DefaultPeriod
	}
	if opts.MaxReplacements == 0 {
		opts.MaxReplacements = DefaultMaxReplacements
	}
	if opts.Hysteresis == 0 {
		opts.Hysteresis = DefaultHysteresis
	} else if opts.Hysteresis < 0 {
		opts.Hysteresis = 0
	}
	c := &Controller{
		cl:     cl,
		solver: solver,
		rec:    rec,
		opts:   opts,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	rec.SetControllerStats(c.controllerStat)
	return c, nil
}

// demand converts windowed per-runtime counts into the allocation
// program's q-vector: expected requests per SLO window. The obs window
// counts wall-clock arrivals while the profile's capacities are in modeled
// time, so on a time-compressed emulated cluster the raw estimate
// overstates modeled demand by 1/TimeScale; the cluster's own TimeScale
// corrects it (1 on a real-time cluster).
func (c *Controller) demand(counts []int64, at time.Time) []float64 {
	span := c.rec.WindowSpan()
	slo := c.solver.Profile.SLO
	windows := 1.0
	if span > 0 && slo > 0 {
		windows = float64(span) / float64(slo)
	}
	q := make([]float64, len(counts))
	for i, n := range counts {
		q[i] = float64(n) / windows * c.cl.TimeScale()
	}
	return q
}

// Step runs one replanning period at the given timestamp: read the
// windowed length distribution, solve the allocation program for the
// live GPU count, and apply (up to the budget, subject to hysteresis)
// the minimal replacement plan. Production calls it from the Start
// ticker with time.Now(); tests call it directly with virtual time.
func (c *Controller) Step(now time.Time) StepResult {
	c.mu.Lock()
	defer c.mu.Unlock()

	counts := c.rec.LengthDistAt(now)
	if counts == nil {
		return c.fail(fmt.Errorf("controller: recorder has no length bins installed"))
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return StepResult{} // an idle window says nothing; keep the topology
	}
	current := c.cl.Allocation()
	g := 0
	for _, n := range current {
		g += n
	}
	if g == 0 {
		return c.fail(errors.New("controller: cluster has no instances"))
	}

	q := c.demand(counts, now)
	target, err := c.solver.Allocate(g, q)
	if err != nil {
		return c.fail(fmt.Errorf("controller: solve: %w", err))
	}
	c.replans.Add(1)
	c.lastDemand = q
	c.lastTarget = target.N
	c.lastErr = ""

	plan, err := allocator.PlanReplacements(current, target.N)
	if err != nil {
		// The topology changed size between Allocation() and the solve
		// (an autoscaler or operator racing us); retry next period.
		return c.fail(fmt.Errorf("controller: diff: %w", err))
	}
	res := StepResult{Replanned: true, Target: target.N, Plan: plan}
	if len(plan) == 0 {
		return res
	}

	// Hysteresis: the plan must promise a real objective win over the
	// topology we already have. An unevaluable current topology (e.g. the
	// top runtime lost its last instance, violating Eq. 7) must be fixed,
	// so it never holds the plan.
	if c.opts.Hysteresis > 0 {
		curCost, cerr := allocator.EvaluateObjective(c.solver.Profile, q, current)
		if cerr == nil && curCost <= target.Cost*(1+c.opts.Hysteresis) {
			c.plansHeld.Add(1)
			res.Held = true
			return res
		}
	}

	if c.opts.MaxReplacements > 0 && len(plan) > c.opts.MaxReplacements {
		plan = plan[:c.opts.MaxReplacements]
		res.Plan = plan
	}
	if c.opts.DryRun {
		return res
	}
	for _, rep := range plan {
		if _, err := c.cl.Replace(rep.From, rep.To); err != nil {
			// A failure or concurrent scale event got there first; the
			// next period replans from the topology that actually exists.
			res.Err = fmt.Errorf("controller: replace %d->%d: %w", rep.From, rep.To, err)
			break
		}
		res.Applied++
		c.replacements.Add(1)
	}
	return res
}

// fail records the error for Status and returns it.
func (c *Controller) fail(err error) StepResult {
	c.lastErr = err.Error()
	return StepResult{Err: err}
}

// Autoscale runs one autoscaler observation at the given timestamp and
// applies its action (grow at the max-length runtime so the new worker
// absorbs anything; shrink the least busy instance). The scaler's virtual
// clock starts at the first call. Returns the action decided (taken, or
// merely recorded in dry-run).
func (c *Controller) Autoscale(now time.Time) allocator.ScaleAction {
	if c.opts.Scaler == nil {
		return allocator.ScaleNone
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.epochSet {
		c.epoch = now
		c.epochSet = true
	}
	p98 := c.rec.P98At(now)
	if p98 <= 0 {
		return allocator.ScaleNone // empty window: no signal, no action
	}
	act := c.opts.Scaler.ObserveLoad(now.Sub(c.epoch), p98, c.utilization(), c.cl.Instances())
	switch act {
	case allocator.ScaleOut:
		if !c.opts.DryRun {
			if _, err := c.cl.AddInstance(len(c.solver.Profile.Runtimes) - 1); err != nil {
				c.lastErr = err.Error()
				return allocator.ScaleNone
			}
		}
		c.scaleOuts.Add(1)
	case allocator.ScaleIn:
		if !c.opts.DryRun {
			if _, err := c.cl.RemoveInstance(-1); err != nil {
				c.lastErr = err.Error()
				return allocator.ScaleNone
			}
		}
		c.scaleIns.Add(1)
	}
	return act
}

// utilization is cluster-wide outstanding work over summed SLO-feasible
// capacity, read from the recorder's live snapshot (0 when unavailable).
func (c *Controller) utilization() float64 {
	snap, ok := c.rec.LiveSnapshot()
	if !ok {
		return 0
	}
	var out, cap int
	for _, in := range snap.Instances {
		if in.Health == obs.Dead {
			continue
		}
		out += in.Outstanding
		cap += in.Capacity
	}
	if cap <= 0 {
		return 0
	}
	return float64(out) / float64(cap)
}

// Start launches the wall-clock control loop: Step every Period,
// Autoscale every ScalePeriod (when a Scaler is configured). Idempotent.
func (c *Controller) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go c.run()
}

func (c *Controller) run() {
	defer close(c.done)
	replan := time.NewTicker(c.opts.Period)
	defer replan.Stop()
	var scaleC <-chan time.Time
	if c.opts.Scaler != nil {
		scale := time.NewTicker(ScalePeriod)
		defer scale.Stop()
		scaleC = scale.C
	}
	for {
		select {
		case <-c.stop:
			return
		case <-replan.C:
			c.Step(time.Now())
		case <-scaleC:
			c.Autoscale(time.Now())
		}
	}
}

// Stop halts the loop and waits for the goroutine to exit. Idempotent;
// safe (and a no-op beyond marking stopped) when Start was never called.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.started.Load() {
		<-c.done
	}
}

// Running reports whether the wall-clock loop has been started and not
// yet stopped.
func (c *Controller) Running() bool {
	if !c.started.Load() {
		return false
	}
	select {
	case <-c.stop:
		return false
	default:
		return true
	}
}

// Status is the controller's introspection snapshot, served by
// GET /v1/controller.
type Status struct {
	Running     bool    `json:"running"`
	DryRun      bool    `json:"dry_run"`
	PeriodMS    float64 `json:"period_ms"`
	AutoScaling bool    `json:"auto_scaling"`

	GPUs       int   `json:"gpus"`
	Allocation []int `json:"allocation"`
	// Target and DemandPerSLO reflect the last solved period (absent
	// before the first solve).
	Target       []int     `json:"target,omitempty"`
	DemandPerSLO []float64 `json:"demand_per_slo,omitempty"`

	P98MS         float64 `json:"p98_ms"`
	WindowSamples int64   `json:"window_samples"`
	WindowMS      float64 `json:"window_ms"`

	Replans         int64   `json:"replans"`
	PlansHeld       int64   `json:"plans_held"`
	Replacements    int64   `json:"replacements"`
	ScaleOuts       int64   `json:"scale_outs"`
	ScaleIns        int64   `json:"scale_ins"`
	MaxReplacements int     `json:"max_replacements"`
	Hysteresis      float64 `json:"hysteresis"`
	LastError       string  `json:"last_error,omitempty"`
}

// Status captures the loop's current state.
func (c *Controller) Status() Status {
	now := time.Now()
	alloc := c.cl.Allocation()
	g := 0
	for _, n := range alloc {
		g += n
	}
	st := Status{
		Running:         c.Running(),
		DryRun:          c.opts.DryRun,
		PeriodMS:        float64(c.opts.Period) / float64(time.Millisecond),
		AutoScaling:     c.opts.Scaler != nil,
		GPUs:            g,
		Allocation:      alloc,
		P98MS:           float64(c.rec.P98At(now)) / float64(time.Millisecond),
		WindowSamples:   c.rec.WindowSamples(now),
		WindowMS:        float64(c.rec.WindowSpan()) / float64(time.Millisecond),
		Replans:         c.replans.Load(),
		PlansHeld:       c.plansHeld.Load(),
		Replacements:    c.replacements.Load(),
		ScaleOuts:       c.scaleOuts.Load(),
		ScaleIns:        c.scaleIns.Load(),
		MaxReplacements: c.opts.MaxReplacements,
		Hysteresis:      c.opts.Hysteresis,
	}
	c.mu.Lock()
	if c.lastTarget != nil {
		st.Target = append([]int(nil), c.lastTarget...)
	}
	if c.lastDemand != nil {
		st.DemandPerSLO = append([]float64(nil), c.lastDemand...)
	}
	st.LastError = c.lastErr
	c.mu.Unlock()
	return st
}

// controllerStat feeds the obs plane's arlo_controller_* metrics.
func (c *Controller) controllerStat() obs.ControllerStat {
	return obs.ControllerStat{
		Replans:      c.replans.Load(),
		PlansHeld:    c.plansHeld.Load(),
		Replacements: c.replacements.Load(),
		ScaleOuts:    c.scaleOuts.Load(),
		ScaleIns:     c.scaleIns.Load(),
		GPUs:         c.cl.Instances(),
		DryRun:       c.opts.DryRun,
	}
}
