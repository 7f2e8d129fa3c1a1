// Package core is the top-level entry point of the Arlo reproduction. It
// holds the one description of a serving scheme — System: a runtime
// profile, a dispatch policy, an allocation policy and an initial
// allocation, which SimConfig turns into a simulation — with the paper's
// three baselines (ST, DT, INFaaS) as constructors of it, and Arlo, which
// embeds its System and wires the calibrated latency model, the offline
// profiler, the Runtime Scheduler (allocation, replacement, auto-scaling)
// and the Request Scheduler (multi-level-queue dispatch) into one system
// that can be simulated (discrete events) or run in real time (emulated
// cluster, control loop).
//
// Typical use:
//
//	a, _ := core.NewSystem(core.WithModel("bert-base"))
//	tr, _ := trace.Generate(trace.Stable(1, 1000, time.Minute))
//	res, _ := a.Simulate(tr, 10)
//	fmt.Println(res.Summary)
package core

import (
	"cmp"
	"fmt"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/sim"
	"arlo/internal/tenant"
	"arlo/internal/trace"
)

// options configure an Arlo deployment; NewSystem's With* options set
// them. The zero value of every field selects the paper's defaults.
type options struct {
	// Model names a preset ("bert-base", "bert-large", "dolly") or is
	// overridden by LatencyModel. Default "bert-base".
	Model string
	// LatencyModel supplies a custom calibrated model.
	LatencyModel *model.LatencyModel
	// SLO defaults to the preset's published objective (150 ms BERT-Base,
	// 450 ms BERT-Large).
	SLO time.Duration
	// NumRuntimes defaults to the staircase choice (max_length/tile, 8
	// for BERT).
	NumRuntimes int
	// Lambda, Alpha, MaxPeek are the Request Scheduler parameters
	// (defaults 0.85, 0.9, 6).
	Lambda, Alpha float64
	MaxPeek       int
	// AllocPeriod is the Runtime Scheduler period (default 120 s).
	AllocPeriod time.Duration
	// DispatchPolicy names the dispatch policy: "RS" (default, the
	// paper's Request Scheduler) or a baseline ("ILB", "IG",
	// "INFaaS"). The Lambda/Alpha/MaxPeek knobs only apply to "RS".
	DispatchPolicy string
	// BatchSize enables dynamic batching in clusters built by NewCluster
	// (and in simulations): instances coalesce up to this many same-runtime
	// requests per kernel, clamped per runtime to the profiled SLO headroom.
	// 0 or 1 disables batching.
	BatchSize int
	// BatchDelay bounds the batch-collection window (modeled time). 0
	// defaults to SLO/100 when batching is on; negative disables waiting
	// (greedy formation).
	BatchDelay time.Duration
	// Continuous switches clusters built by NewCluster to iteration-level
	// (continuous) batching for generative workloads: batches re-form
	// every iteration, finished sequences exit immediately, and queued
	// requests join freed decode slots mid-flight.
	Continuous bool
	// MeanOutTokens hints the expected generative output length for the
	// continuous capacity model (0 defaults to 16).
	MeanOutTokens float64
	// Tenants, when non-empty, enables multi-tenant serving in clusters
	// built by NewCluster: token-bucket admission plus weighted fair
	// dispatch across the given tenant records.
	Tenants []tenant.Config
}

// defaultAllocPeriod is the paper's Runtime Scheduler period.
const defaultAllocPeriod = 120 * time.Second

// Arlo is a configured system: the Arlo scheme (polymorphing with the
// Runtime Scheduler's exact allocation and the Request Scheduler's
// multi-level-queue dispatch) plus what running it for real needs.
type Arlo struct {
	System
	// Model is the calibrated latency model.
	Model *model.LatencyModel
	// Solver is the Runtime Scheduler's allocation solver.
	Solver *allocator.Solver

	opts options // as given, with every default resolved
}

func build(opts options) (*Arlo, error) {
	lm := opts.LatencyModel
	if lm == nil {
		opts.Model = cmp.Or(opts.Model, model.BertBaseArch.Name)
		lm = model.ByName(opts.Model)
		if lm == nil {
			return nil, fmt.Errorf("core: unknown model %q", opts.Model)
		}
	}
	if opts.SLO == 0 {
		preset, ok := model.SLO(lm.Arch())
		if !ok {
			return nil, fmt.Errorf("core: model %q has no preset SLO; set WithSLO", lm.Arch().Name)
		}
		opts.SLO = preset
	}
	opts.NumRuntimes = cmp.Or(opts.NumRuntimes, lm.Arch().NumRuntimes())
	if opts.NumRuntimes <= 0 || lm.Arch().MaxLength%opts.NumRuntimes != 0 {
		return nil, fmt.Errorf("core: %d runtimes must evenly divide max length %d", opts.NumRuntimes, lm.Arch().MaxLength)
	}
	p, err := profiler.StaticProfile(lm, lm.Arch().RuntimeLengthsN(opts.NumRuntimes), opts.SLO)
	if err != nil {
		return nil, err
	}
	solver, err := allocator.NewSolver(p)
	if err != nil {
		return nil, err
	}
	opts.Lambda = cmp.Or(opts.Lambda, 0.85)
	opts.Alpha = cmp.Or(opts.Alpha, 0.9)
	opts.MaxPeek = cmp.Or(opts.MaxPeek, 6)
	opts.AllocPeriod = cmp.Or(opts.AllocPeriod, defaultAllocPeriod)
	opts.DispatchPolicy = cmp.Or(opts.DispatchPolicy, "RS")
	factory := dispatch.Policy(opts.DispatchPolicy)
	if opts.DispatchPolicy == "RS" {
		factory = dispatch.SchedulerParams(opts.Lambda, opts.Alpha, opts.MaxPeek)
	}
	allocate := func(g int, q []float64) ([]int, error) {
		al, err := solver.Allocate(g, q)
		if err != nil {
			return nil, err
		}
		return al.N, nil
	}
	// Validate dispatch policy and parameters eagerly.
	ml, err := queue.NewMultiLevel(p.MaxLengths())
	if err != nil {
		return nil, err
	}
	if _, err := factory(ml); err != nil {
		return nil, err
	}
	return &Arlo{
		System: System{Name: "Arlo", Profile: p, Dispatcher: factory, Allocate: allocate, Initial: allocate},
		Model:  lm,
		Solver: solver,
		opts:   opts,
	}, nil
}

// SLO returns the configured service level objective.
func (a *Arlo) SLO() time.Duration { return a.Profile.SLO }

// simConfig is the scheme's SimConfig with this system's own period — the
// initial allocation is solved from the first AllocPeriod of the trace
// (standing in for history) and reallocation runs every AllocPeriod — and
// batch size.
func (a *Arlo) simConfig(tr *trace.Trace, g int) (sim.Config, error) {
	cfg, err := a.SimConfig(tr, g, a.opts.AllocPeriod)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.AllocPeriod = a.opts.AllocPeriod
	cfg.MaxBatch = a.opts.BatchSize
	return cfg, nil
}

// Simulate runs the discrete-event simulation of this system on a trace
// with a fixed pool of g GPUs. The simulator models what the paper's
// figures and the ablations need — batch-1 or MaxBatch execution, periodic
// reallocation, autoscaling, failures, late binding; continuous batching,
// tenants and SLO classes exist only in the live cluster (NewCluster).
func (a *Arlo) Simulate(tr *trace.Trace, g int) (*sim.Result, error) {
	cfg, err := a.simConfig(tr, g)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg)
}

// NewCluster starts a real-time emulated cluster of g GPUs allocated for
// the given expected demand (nil demand spreads GPUs evenly).
func (a *Arlo) NewCluster(g int, q []float64) (*cluster.Cluster, error) {
	var initial []int
	var err error
	if q == nil {
		initial, err = allocator.EvenAllocation(g, len(a.Profile.Runtimes))
	} else {
		initial, err = a.Initial(g, q)
	}
	if err != nil {
		return nil, err
	}
	var reg *tenant.Registry
	if len(a.opts.Tenants) > 0 {
		reg, err = tenant.NewRegistry(a.opts.Tenants...)
		if err != nil {
			return nil, err
		}
	}
	return cluster.New(cluster.Config{
		Profile:           a.Profile,
		InitialAllocation: initial,
		Dispatcher:        a.Dispatcher,
		MaxBatch:          a.opts.BatchSize,
		BatchDelay:        a.opts.BatchDelay,
		Continuous:        a.opts.Continuous,
		MeanOutTokens:     a.opts.MeanOutTokens,
		Tenants:           reg,
	})
}
