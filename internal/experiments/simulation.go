package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/core"
	"arlo/internal/metrics"
	"arlo/internal/model"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

// Fig10 regenerates the large-scale simulation comparison under
// Twitter-Bursty load. Paper scale is 8k req/s on 90 GPUs (Bert-Base) and
// 25k req/s on 300 GPUs (Bert-Large); quick mode scales both down by 3x
// (same per-GPU load) so the suite stays fast.
func Fig10(w io.Writer, opt Options) error {
	dur := 40 * time.Second
	div := 3.0
	if opt.Full {
		dur = 3 * time.Minute
		div = 1.0
	}
	streams := []struct {
		name string
		lm   *model.LatencyModel
		slo  time.Duration
		rate float64
		gpus int
	}{
		{"Bert-Base", model.BertBase(), 150 * time.Millisecond, 8000 / div, int(90 / div)},
		{"Bert-Large", model.BertLarge(), 450 * time.Millisecond, 25000 / div, int(300 / div)},
	}
	for _, st := range streams {
		fmt.Fprintf(w, "-- %s @ %.0f req/s, %d GPUs, Twitter-Bursty --\n", st.name, st.rate, st.gpus)
		tr, err := trace.Generate(trace.Bursty(opt.Seed, st.rate, dur))
		if err != nil {
			return err
		}
		systems, err := fourSystems(st.lm, st.slo, tr)
		if err != nil {
			return err
		}
		results, err := runComparison(w, systems, tr, st.gpus, nil)
		if err != nil {
			return err
		}
		printReductions(w, results)
		// Latency CDF quantiles per scheme (the Fig. 10 curves).
		tw := newTab(w)
		fmt.Fprintln(tw, "scheme\tp25(ms)\tp50(ms)\tp75(ms)\tp90(ms)\tp98(ms)")
		for _, s := range systems {
			var lats []time.Duration
			for _, r := range results[s.Name].Requests {
				if r.Instance >= 0 {
					lats = append(lats, r.Latency)
				}
			}
			slices.Sort(lats)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", s.Name,
				ms(metrics.Quantile(lats, 0.25)), ms(metrics.Quantile(lats, 0.50)),
				ms(metrics.Quantile(lats, 0.75)), ms(metrics.Quantile(lats, 0.90)),
				ms(metrics.Quantile(lats, 0.98)))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "(paper: Arlo mean -70.3%/-98.1% vs ST, -24.1%/-30.7% vs DT, -31.3%/-41.7% vs INFaaS)")
	return nil
}

// Fig11 sweeps the number of compiled runtimes N in {2, 4, 8, 16} for a
// Bert-Large stream on 40 GPUs: too few runtimes leave padding costs on
// the table; beyond the staircase choice (8) the gains vanish.
func Fig11(w io.Writer, opt Options) error {
	dur := 40 * time.Second
	rate := 4800.0
	if opt.Full {
		dur = 3 * time.Minute
	}
	lm := model.BertLarge()
	slo := 450 * time.Millisecond
	tr, err := trace.Generate(trace.Bursty(opt.Seed, rate, dur))
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "#runtimes\tmean(ms)\tp98(ms)\tSLO-viol%")
	for _, n := range []int{2, 4, 8, 16} {
		s, err := arloFor(lm, slo, core.WithNumRuntimes(n))
		if err != nil {
			return err
		}
		cfg, err := s.SimConfig(tr, 40, 20*time.Second)
		if err != nil {
			return err
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2f\n", n, ms(res.Summary.Mean), ms(res.Summary.P98), 100*res.Summary.SLOFraction)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: 2 runtimes fail the stream; 4 violate ~2.5% of SLOs; 8 matches 16)")
	return nil
}

// Table3 compares the Runtime Scheduler's periodic allocation against two
// offline baselines: even GPUs per runtime and a single allocation from
// the global trace distribution. The workload's length distribution
// swings between short-heavy and long-heavy regimes, so any fixed
// allocation is wrong half the time.
func Table3(w io.Writer, opt Options) error {
	dur := 5 * time.Minute
	period := 20 * time.Second
	if opt.Full {
		dur = 16 * time.Minute
		period = 60 * time.Second
	}
	lm := model.BertLarge()
	slo := 450 * time.Millisecond
	const gpus = 40
	// Today's stream runs longer-than-usual inputs with a slow regime
	// drift; the "global trace" statistics the offline baseline is built
	// from describe the long-term average workload (shorter inputs).
	tr, err := trace.Generate(trace.Config{
		Seed:     opt.Seed,
		Duration: dur,
		Arrivals: trace.Poisson{Rate: 4200},
		Lengths: trace.DriftingLengths{
			Mu:          math.Log(120),
			SigmaWindow: 0.40,
			DriftAmp:    0.30,
			DriftPeriod: 8 * period,
			Min:         1,
			Max:         512,
		},
	})
	if err != nil {
		return err
	}
	arlo, err := arloFor(lm, slo)
	if err != nil {
		return err
	}
	numRt := len(arlo.Profile.Runtimes)

	type policy struct {
		name    string
		initial func() ([]int, error)
		alloc   allocator.Func
	}
	caps := make([]int, numRt)
	for i, rt := range arlo.Profile.Runtimes {
		caps[i] = rt.Capacity
	}
	// The global-distribution baseline allocates from the long-term
	// workload statistics, not from the clip it is evaluated on (the
	// paper's "global trace length distribution").
	reference, err := trace.Generate(trace.Config{
		Seed:     opt.Seed + 977,
		Duration: dur,
		Arrivals: trace.Poisson{Rate: 4200},
		Lengths:  trace.TwitterRecalibrated(opt.Seed + 977),
	})
	if err != nil {
		return err
	}
	globalQ := arlo.Demand(reference)
	policies := []policy{
		{
			name: "periodic (Runtime Scheduler)",
			initial: func() ([]int, error) {
				al, err := arlo.Allocate(gpus, arlo.Demand(tr.Clip(0, period)))
				if err != nil {
					return nil, err
				}
				return al.N, nil
			},
			alloc: arlo.Allocate,
		},
		{
			name:    "even per runtime (offline)",
			initial: func() ([]int, error) { return allocator.EvenAllocation(gpus, numRt) },
		},
		{
			name:    "global trace distribution (offline)",
			initial: func() ([]int, error) { return allocator.ProportionalAllocation(gpus, globalQ, caps) },
		},
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "allocation\tmean(ms)\tp98(ms)\tSLO-viol%")
	for _, pol := range policies {
		initial, err := pol.initial()
		if err != nil {
			return err
		}
		cfg := sim.Config{
			Profile:           arlo.Profile,
			Trace:             tr,
			InitialAllocation: initial,
			Dispatcher:        arlo.Dispatcher,
			Allocate:          pol.alloc,
		}
		if pol.alloc != nil {
			cfg.AllocPeriod = period
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\n", pol.name, ms(res.Summary.Mean), ms(res.Summary.P98), 100*res.Summary.SLOFraction)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: both offline schemes trail periodic allocation under dynamic workloads)")
	return nil
}

// Fig12 traces the GPU counts the Runtime Scheduler assigns to the eight
// runtimes across a drifting bursty trace.
func Fig12(w io.Writer, opt Options) error {
	dur := 4 * time.Minute
	period := 45 * time.Second
	if opt.Full {
		dur = 10 * time.Minute
		period = 120 * time.Second
	}
	a, err := core.NewSystem(core.WithModel("bert-large"), core.WithAllocPeriod(period))
	if err != nil {
		return err
	}
	tr, err := trace.Generate(trace.Bursty(opt.Seed, 5000, dur))
	if err != nil {
		return err
	}
	res, err := a.Simulate(tr, 40)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprint(tw, "t(s)")
	for i := range a.Profile.Runtimes {
		fmt.Fprintf(tw, "\trt%d(%d)", i, a.Profile.Runtimes[i].MaxLength)
	}
	fmt.Fprintln(tw)
	for _, pt := range res.Allocations {
		fmt.Fprintf(tw, "%.0f", pt.At.Seconds())
		for _, n := range pt.N {
			fmt.Fprintf(tw, "\t%d", n)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "reallocations: %d, instance replacements: %d\n", len(res.Allocations)-1, res.Replacements)
	return nil
}

// Table4 compares the Request Scheduler (RS) against intra-group load
// balance (ILB) and inter-group greedy (IG) within Arlo, on three
// Bert-Large Twitter-Bursty traces at different scales; the third trace
// has weak short-term length fluctuation (paper: RS ~ ILB there, both far
// ahead of IG).
func Table4(w io.Writer, opt Options) error {
	dur := 150 * time.Second
	period := 40 * time.Second
	if opt.Full {
		dur = 4 * time.Minute
		period = 120 * time.Second
	}
	lm := model.BertLarge()
	slo := 450 * time.Millisecond
	type stream struct {
		name string
		tr   *trace.Trace
		gpus int
	}
	// Strong short-term length fluctuation: a drifting short-heavy
	// component mixed with a long "document" component, under bursty
	// arrivals. The ideal runtimes of a burst overload before the Runtime
	// Scheduler's next period — demotion is what absorbs it.
	fluctuating := func(seed int64) trace.LengthSampler {
		return trace.MixtureLengths{
			Components: []trace.LengthSampler{
				trace.DriftingLengths{
					Mu: math.Log(60), SigmaWindow: 0.45, DriftAmp: 0.35,
					DriftPeriod: 60 * time.Second, NoiseAmp: 0.2, NoiseSeed: seed,
					Min: 1, Max: 512,
				},
				trace.LogNormalLengths{Mu: math.Log(350), Sigma: 0.25, Min: 128, Max: 512},
			},
			Weights: []float64{0.85, 0.15},
		}
	}
	tr1, err := trace.Generate(trace.Config{
		Seed: opt.Seed, Duration: dur,
		Arrivals: trace.BurstyAround(2200),
		Lengths:  fluctuating(opt.Seed),
	})
	if err != nil {
		return err
	}
	tr2, err := trace.Generate(trace.Config{
		Seed: opt.Seed + 1, Duration: dur,
		Arrivals: trace.BurstyAround(4400),
		Lengths:  fluctuating(opt.Seed + 1),
	})
	if err != nil {
		return err
	}
	// Weak short-term fluctuation: stable arrivals, drift-free lengths.
	tr3, err := trace.Generate(trace.Config{
		Seed:     opt.Seed + 2,
		Duration: dur,
		Arrivals: trace.Poisson{Rate: 3600},
		Lengths: trace.LogNormalLengths{
			Mu:    math.Log(21 * 512.0 / 125.0),
			Sigma: 0.55,
			Min:   1,
			Max:   512,
		},
	})
	if err != nil {
		return err
	}
	streams := []stream{
		{"bursty-small (2.2k req/s, 20 GPUs)", tr1, 20},
		{"bursty-large (4.4k req/s, 40 GPUs)", tr2, 40},
		{"weak-fluctuation (3.6k req/s, 30 GPUs)", tr3, 30},
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "trace\tpolicy\tmean(ms)\tp98(ms)\tSLO-viol%")
	for _, st := range streams {
		for _, policy := range []string{"RS", "ILB", "IG"} {
			s, err := arloFor(lm, slo, core.WithDispatchPolicy(policy))
			if err != nil {
				return err
			}
			cfg, err := s.SimConfig(st.tr, st.gpus, 20*time.Second)
			if err != nil {
				return err
			}
			cfg.AllocPeriod = period // keep the Runtime Scheduler active
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\n",
				st.name, policy, ms(res.Summary.Mean), ms(res.Summary.P98), 100*res.Summary.SLOFraction)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: RS cuts tail latency up to 95.6% vs ILB and 58.7% vs IG; on the weak-fluctuation trace RS ~ ILB >> IG)")
	return nil
}

// AblationRS sweeps the Request Scheduler's parameters around the paper's
// defaults (lambda 0.85, alpha 0.9, L 6) on a bursty Bert-Large stream —
// the sensitivity analysis behind the section 5 parameter choices.
func AblationRS(w io.Writer, opt Options) error {
	dur := 30 * time.Second
	if opt.Full {
		dur = 2 * time.Minute
	}
	tr, err := trace.Generate(trace.Bursty(opt.Seed, 2800, dur))
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "lambda\talpha\tL\tmean(ms)\tp98(ms)")
	run := func(lambda, alpha float64, L int) error {
		a, err := core.NewSystem(core.WithModel("bert-large"), core.WithSchedulerParams(lambda, alpha, L))
		if err != nil {
			return err
		}
		res, err := a.Simulate(tr, 20)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%.2f\t%.2f\t%d\t%s\t%s\n", lambda, alpha, L, ms(res.Summary.Mean), ms(res.Summary.P98))
		return nil
	}
	for _, lambda := range []float64{0.5, 0.7, 0.85, 0.95} {
		if err := run(lambda, 0.9, 6); err != nil {
			return err
		}
	}
	for _, alpha := range []float64{0.7, 1.0} {
		if err := run(0.85, alpha, 6); err != nil {
			return err
		}
	}
	for _, L := range []int{1, 3} {
		if err := run(0.85, 0.9, L); err != nil {
			return err
		}
	}
	return tw.Flush()
}
