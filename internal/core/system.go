package core

import (
	"fmt"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

// System is one of the serving schemes the evaluation compares (paper
// section 5, "Compared schemes") — ST, DT, INFaaS or Arlo — described by
// the four things they differ in. SimConfig turns any of them into a
// simulation, so experiments treat them uniformly; Arlo embeds its own.
type System struct {
	// Name is the scheme label used in experiment output.
	Name string
	// Profile describes the deployed runtimes.
	Profile *profiler.Profile
	// Dispatcher builds the request-dispatch policy.
	Dispatcher dispatch.Factory
	// Allocate is the scheme's one allocation policy: it sets the starting
	// deployment from warm-up demand and, in the simulator, every period's
	// Runtime Scheduler step. Nil is a fixed deployment, which starts
	// evenly split (ST and DT: all GPUs on their one runtime).
	Allocate allocator.Func
}

// ST assembles the uniform zero-padding baseline: one static runtime at
// the model's maximum length — every request pays full padding —
// load-balanced, fixed deployment.
func ST(lm *model.LatencyModel, slo time.Duration) (*System, error) {
	if lm == nil {
		return nil, fmt.Errorf("core: nil latency model")
	}
	p, err := profiler.StaticProfile(lm, []int{lm.Arch().MaxLength}, slo)
	if err != nil {
		return nil, err
	}
	return &System{Name: "ST", Profile: p, Dispatcher: dispatch.Policy("ILB")}, nil
}

// DT assembles the dynamic-compilation baseline: one dynamic runtime
// profiled over the given representative lengths — no padding but inflated
// kernel time — load-balanced, fixed deployment.
func DT(lm *model.LatencyModel, sampleLengths []int, slo time.Duration) (*System, error) {
	if lm == nil {
		return nil, fmt.Errorf("core: nil latency model")
	}
	p, err := profiler.DynamicProfile(lm, sampleLengths, slo)
	if err != nil {
		return nil, err
	}
	return &System{Name: "DT", Profile: p, Dispatcher: dispatch.Policy("ILB")}, nil
}

// INFaaS assembles the multi-variant baseline: the same runtimes as Arlo
// but bin-packing dispatch and allocation proportional to raw request
// counts — load-aware, not length-aware (section 2.3: it "does not take
// into account the distribution of input lengths").
func INFaaS(lm *model.LatencyModel, slo time.Duration) (*System, error) {
	if lm == nil {
		return nil, fmt.Errorf("core: nil latency model")
	}
	p, err := profiler.StaticProfile(lm, lm.Arch().RuntimeLengths(), slo)
	if err != nil {
		return nil, err
	}
	countProportional := func(g int, q []float64) (*allocator.Allocation, error) {
		// Equal per-instance weights: shares follow request counts only.
		flat := make([]int, len(q))
		for i := range flat {
			flat[i] = 1
		}
		n, err := allocator.ProportionalAllocation(g, q, flat)
		if err != nil {
			return nil, err
		}
		return &allocator.Allocation{N: n}, nil
	}
	return &System{
		Name:       "INFaaS",
		Profile:    p,
		Dispatcher: dispatch.Policy("INFaaS"),
		Allocate:   countProportional,
	}, nil
}

// Demand estimates per-runtime demand (requests per SLO window per length
// bin) from a trace — the Q_i input of the allocation program.
func (s *System) Demand(tr *trace.Trace) []float64 {
	return tr.BinDemand(s.Profile.MaxLengths(), s.Profile.SLO)
}

// SimConfig builds a simulator configuration for the system over a trace
// with g GPUs. Warm-up demand for the initial allocation is estimated
// from the first warmup window of the trace itself (the paper bootstraps
// from history); warmup <= 0 uses the whole trace. A scheme that
// reallocates does so at the paper's 120 s period.
func (s *System) SimConfig(tr *trace.Trace, g int, warmup time.Duration) (sim.Config, error) {
	if tr == nil {
		return sim.Config{}, fmt.Errorf("core: nil trace")
	}
	if g < 1 {
		return sim.Config{}, fmt.Errorf("core: need at least one GPU")
	}
	window := tr
	if warmup > 0 && warmup < tr.Duration {
		window = tr.Clip(0, warmup)
	}
	initial, err := s.initial(g, s.Demand(window))
	if err != nil {
		return sim.Config{}, fmt.Errorf("core: initial allocation for %s: %w", s.Name, err)
	}
	cfg := sim.Config{
		Profile:           s.Profile,
		Trace:             tr,
		InitialAllocation: initial,
		Dispatcher:        s.Dispatcher,
		Allocate:          s.Allocate,
	}
	if s.Allocate != nil {
		cfg.AllocPeriod = defaultAllocPeriod
	}
	return cfg, nil
}

// initial is the scheme's starting deployment of g GPUs: its allocation
// policy on the warm-up demand q, or an even split for a fixed scheme or
// an unknown (nil) demand.
func (s *System) initial(g int, q []float64) ([]int, error) {
	if s.Allocate == nil || q == nil {
		return allocator.EvenAllocation(g, len(s.Profile.Runtimes))
	}
	al, err := s.Allocate(g, q)
	if err != nil {
		return nil, err
	}
	return al.N, nil
}
