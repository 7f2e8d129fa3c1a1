package experiments

import (
	"fmt"
	"io"
	"time"

	"arlo/internal/core"
	"arlo/internal/model"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

// AblationFailures injects instance crashes into a moderately loaded
// Bert-Base stream and compares the dispatch policies' resilience. The
// paper motivates the Request Scheduler with exactly this scenario
// (section 1: "idiosyncratic factors such as failures and bugs also lead
// to imbalanced load"): when a runtime loses an instance, demotion lets
// its traffic spill to larger runtimes until the Runtime Scheduler's next
// period repairs the allocation.
func AblationFailures(w io.Writer, opt Options) error {
	dur := 60 * time.Second
	if opt.Full {
		dur = 3 * time.Minute
	}
	lm := model.BertBase()
	slo := 150 * time.Millisecond
	tr, err := trace.Generate(trace.Stable(opt.Seed, 4000, dur))
	if err != nil {
		return err
	}
	// Crash the most loaded instance of the busiest runtime twice, with
	// 15 s outages — long enough to hurt, short enough that the trace's
	// remainder shows recovery.
	failures := []sim.Failure{
		{At: 15 * time.Second, Runtime: 1, Downtime: 15 * time.Second},
		{At: 18 * time.Second, Runtime: 1, Downtime: 15 * time.Second},
		{At: 40 * time.Second, Runtime: 0, Downtime: 15 * time.Second},
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "policy\tmean(ms)\tp98(ms)\tSLO-viol%\tfailures")
	for _, policy := range []string{"RS", "ILB", "IG"} {
		s, err := arloFor(lm, slo, core.WithDispatchPolicy(policy))
		if err != nil {
			return err
		}
		cfg, err := s.SimConfig(tr, 10, 20*time.Second)
		if err != nil {
			return err
		}
		cfg.Failures = failures
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%d\n",
			policy, ms(res.Summary.Mean), ms(res.Summary.P98), 100*res.Summary.SLOFraction, res.Failures)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(extension: demotion-capable policies should absorb outages that strand ILB's traffic)")
	return nil
}

// AblationBatch sweeps the dynamic-batching extension (paper section 6,
// future work): at low load batching is a pure latency tax (requests wait
// for nothing and pay the shared batch's cost), while past the batch-1
// saturation point it is the only way to keep serving — the classic
// throughput/latency trade-off the paper describes.
func AblationBatch(w io.Writer, opt Options) error {
	dur := 25 * time.Second
	if opt.Full {
		dur = 2 * time.Minute
	}
	lm := model.BertBase()
	slo := 150 * time.Millisecond
	arlo, err := arloFor(lm, slo)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "load(req/s)\tbatch\tmean(ms)\tp98(ms)\tSLO-viol%")
	for _, rate := range []float64{1000, 4000, 7000} {
		tr, err := trace.Generate(trace.Stable(opt.Seed, rate, dur))
		if err != nil {
			return err
		}
		for _, batch := range []int{1, 2, 4, 8} {
			cfg, err := arlo.SimConfig(tr, 10, 20*time.Second)
			if err != nil {
				return err
			}
			cfg.MaxBatch = batch
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%.0f\t%d\t%s\t%s\t%.2f\n",
				rate, batch, ms(res.Summary.Mean), ms(res.Summary.P98), 100*res.Summary.SLOFraction)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(extension: batch 1 wins while it keeps up; larger batches extend the capacity ceiling at a latency cost)")
	return nil
}

// AblationParallel exercises the "large models with multiple GPUs"
// discussion (paper section 6): the same Bert-Large pool served by
// tensor-parallel instances of 1, 2 and 4 GPUs each (communication
// fraction 0.15). Polymorphing's advantage over uniform padding persists
// at every shard count because the computation stays shape-dependent —
// exactly the paper's argument.
func AblationParallel(w io.Writer, opt Options) error {
	dur := 25 * time.Second
	if opt.Full {
		dur = 2 * time.Minute
	}
	base := model.BertLarge()
	slo := 450 * time.Millisecond
	const poolGPUs = 24
	tr, err := trace.Generate(trace.Stable(opt.Seed, 1200, dur))
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "shards/instance\tinstances\tscheme\tmean(ms)\tp98(ms)")
	for _, k := range []int{1, 2, 4} {
		lm, err := base.Sharded(k, 0.15)
		if err != nil {
			return err
		}
		instances := poolGPUs / k
		arlo, err := arloFor(lm, slo)
		if err != nil {
			return err
		}
		st, err := core.ST(lm, slo)
		if err != nil {
			return err
		}
		for _, s := range []*core.System{st, &arlo.System} {
			cfg, err := s.SimConfig(tr, instances, 20*time.Second)
			if err != nil {
				return err
			}
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%s\n",
				k, instances, s.Name, ms(res.Summary.Mean), ms(res.Summary.P98))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(extension: Arlo's padding savings survive model parallelism; sharding trades instance count for per-request speed)")
	return nil
}

// AblationLateBinding compares Algorithm 1's early binding (commit every
// request to an instance at arrival) with a late-binding variant that
// holds requests in the central request buffer of the paper's
// architecture (Fig. 3, component (e)) while every candidate instance is
// past its SLO capacity, binding them as completions free capacity.
// Late binding is the classic remedy for early-binding's gamble under
// bursts — an extension of the paper's design space.
func AblationLateBinding(w io.Writer, opt Options) error {
	dur := 100 * time.Second
	if opt.Full {
		dur = 4 * time.Minute
	}
	lm := model.BertLarge()
	slo := 450 * time.Millisecond
	arlo, err := arloFor(lm, slo)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "load(req/s)\tbinding\tmean(ms)\tp98(ms)\tSLO-viol%\tbuffer peak")
	for _, rate := range []float64{1200, 2200} {
		tr, err := trace.Generate(trace.Bursty(opt.Seed, rate, dur))
		if err != nil {
			return err
		}
		for _, late := range []bool{false, true} {
			cfg, err := arlo.SimConfig(tr, 20, 20*time.Second)
			if err != nil {
				return err
			}
			cfg.AllocPeriod = 40 * time.Second
			cfg.LateBinding = late
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			label := "early"
			if late {
				label = "late"
			}
			fmt.Fprintf(tw, "%.0f\t%s\t%s\t%s\t%.2f\t%d\n",
				rate, label, ms(res.Summary.Mean), ms(res.Summary.P98),
				100*res.Summary.SLOFraction, res.BufferedPeak)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(extension: late binding should match early binding when idle and soften tails under saturation)")
	return nil
}
