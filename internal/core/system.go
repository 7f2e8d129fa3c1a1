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
// the five things they differ in. SimConfig turns any of them into a
// simulation, so experiments treat them uniformly; Arlo embeds its own.
type System struct {
	// Name is the scheme label used in experiment output.
	Name string
	// Profile describes the deployed runtimes.
	Profile *profiler.Profile
	// Dispatcher builds the request-dispatch policy.
	Dispatcher dispatch.Factory
	// Allocate is the periodic Runtime Scheduler policy (nil = fixed
	// deployment).
	Allocate sim.AllocatorFunc
	// Initial computes the starting allocation for g GPUs given warm-up
	// demand (requests per SLO window per runtime bin).
	Initial sim.AllocatorFunc
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
	return singleRuntime("ST", p), nil
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
	return singleRuntime("DT", p), nil
}

// singleRuntime deploys every GPU on the profile's one runtime; with a
// single level ILB is pure load balance.
func singleRuntime(name string, p *profiler.Profile) *System {
	return &System{
		Name:       name,
		Profile:    p,
		Dispatcher: dispatch.Policy("ILB"),
		Initial: func(g int, _ []float64) ([]int, error) {
			return allocator.SingleRuntimeAllocation(g, 1, 0)
		},
	}
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
	countProportional := func(g int, q []float64) ([]int, error) {
		// Equal per-instance weights: shares follow request counts only.
		flat := make([]int, len(q))
		for i := range flat {
			flat[i] = 1
		}
		return allocator.ProportionalAllocation(g, q, flat)
	}
	return &System{
		Name:       "INFaaS",
		Profile:    p,
		Dispatcher: dispatch.Policy("INFaaS"),
		Allocate:   countProportional,
		Initial:    countProportional,
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
	initial, err := s.Initial(g, s.Demand(window))
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
