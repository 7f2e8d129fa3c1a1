// Package controller closes the paper's control loop on the live cluster:
// the Runtime Scheduler's allocation program (Eqs. 1-7) and the section 4
// target-tracking autoscaler, until now only exercised inside simulator
// experiments, run here against the serving topology itself.
//
// Every control period the loop takes the arrivals the cluster booked
// since the previous period, per runtime length bin (the demand the
// simulator's tick counts), takes the Runtime Scheduler's one step
// (allocator.Replan, the simulator's step too) for the live GPU count, and
// applies the plan through the cluster's Replace path. A separate, faster
// loop feeds the autoscaler (target-tracking on p98, or utilization
// headroom) and grows or shrinks the GPU pool through
// AddInstance/RemoveInstance. Three dampers keep the loop from thrashing,
// mirroring the k8s-HPA desired/current pattern:
//
//   - hysteresis: a plan is applied only when the solver's objective beats
//     the current topology's objective by a configurable margin, so noise
//     around an optimum does not churn instances (Replan's hold);
//   - a max-replacements-per-period budget: large drifts converge over
//     several periods instead of restarting half the fleet at once
//     (Replan's budget);
//   - dry-run mode: observe, solve and record without touching topology.
//
// Determinism is a design constraint, not an afterthought: Step reads
// only the arrival books, Autoscale takes an explicit timestamp, and both
// do all their work synchronously, so the convergence test suite drives
// the loop with a fake clock and seeded demand — Start merely wraps the
// same methods in wall-clock tickers for production use.
package controller

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/cluster"
	"arlo/internal/obs"
	"arlo/internal/trace"
)

// Defaults for Options' zero values, and the autoscaler's fixed tick.
const (
	// DefaultPeriod is the replanning interval: frequent enough to track
	// minute-scale drift, long enough that one period's arrivals estimate
	// the length distribution.
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
	// Period is the replanning interval (default DefaultPeriod), and the
	// span Step divides one period's arrivals over.
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
	// controller tests and three chaos tests, all but one to run with none;
	// the simulator row needs none to match the simulator's hold of 0); it
	// stays because restating them on the shipped 5% is its own change.
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
	// (false when no request arrived in it).
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

// New builds a controller over the cluster and solver. The loop reads its
// demand and latency signals from the cluster's recorder, and installs
// itself there as the controller-stats source for the arlo_controller_*
// metrics. The first period starts here: arrivals booked before New are
// not its demand.
func New(cl *cluster.Cluster, solver *allocator.Solver, opts Options) (*Controller, error) {
	if cl == nil {
		return nil, errors.New("controller: nil cluster")
	}
	if solver == nil || solver.Profile == nil {
		return nil, errors.New("controller: nil solver")
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
		opts:   opts,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	cl.Recorder().SetControllerStats(c.controllerStat)
	cl.Recorder().TakeArrivals()
	return c, nil
}

// Step runs one replanning period: take the arrivals booked since the
// previous Step, divide them over one Period into demand per SLO window
// (trace.PerWindow, as the simulator's tick does), take one
// allocator.Replan step for the live GPU count, and apply its plan (up to
// the budget, subject to hysteresis). The Start ticker calls it every
// Period; tests and chaos.Run call it directly.
func (c *Controller) Step() StepResult {
	c.mu.Lock()
	defer c.mu.Unlock()

	counts := c.cl.Recorder().TakeArrivals()
	if !slices.ContainsFunc(counts, func(n int64) bool { return n > 0 }) {
		return StepResult{} // an idle period says nothing; keep the topology
	}
	q := trace.PerWindow(counts, c.opts.Period, c.solver.Profile.SLO, c.cl.TimeScale())
	target, plan, held, err := allocator.Replan(c.solver.Allocate, c.solver.Profile, c.cl.Allocation(), q, c.opts.Hysteresis, c.opts.MaxReplacements)
	if target == nil {
		return c.fail(fmt.Errorf("controller: solve: %w", err))
	}
	c.replans.Add(1)
	c.lastDemand = q
	c.lastTarget = target.N
	c.lastErr = ""
	if err != nil {
		// The topology changed size between Allocation() and the solve
		// (an autoscaler or operator racing us); retry next period.
		return c.fail(fmt.Errorf("controller: diff: %w", err))
	}
	res := StepResult{Replanned: true, Held: held, Target: target.N, Plan: plan}
	if held {
		c.plansHeld.Add(1)
		return res
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
	p98 := c.cl.Recorder().P98At(now)
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

// utilization is cluster-wide outstanding work over the serving
// instances' summed SLO-feasible capacity, from one cluster snapshot (0
// when nothing is serving).
func (c *Controller) utilization() float64 {
	var out, cap int
	for _, lv := range c.cl.Snapshot().Levels {
		out += lv.Depth
		cap += lv.Capacity
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
			c.Step()
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
	now, rec := time.Now(), c.cl.Recorder()
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
		P98MS:           float64(rec.P98At(now)) / float64(time.Millisecond),
		WindowSamples:   rec.WindowSamples(now),
		WindowMS:        float64(obs.WindowSpan) / float64(time.Millisecond),
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
