package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/chaos"
	"arlo/internal/dispatch"
	"arlo/internal/metrics"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

// Fig6 regenerates the testbed latency comparison: a Bert-Base stream at
// 1k req/s and a Bert-Large stream, both on 10 GPUs under Twitter-Stable,
// across ST, DT, INFaaS and Arlo. The paper drives Bert-Large at 1.5k
// req/s; under this reproduction's calibrated Bert-Large latencies that
// load exceeds what 10 GPUs can serve even unpadded, so the Bert-Large
// stream runs at 700 req/s — the highest load at which the best scheme is
// stable — preserving the comparison's shape (see EXPERIMENTS.md).
func Fig6(w io.Writer, opt Options) error {
	dur := 40 * time.Second
	if opt.Full {
		dur = 5 * time.Minute
	}
	streams := []struct {
		name string
		lm   *model.LatencyModel
		slo  time.Duration
		rate float64
	}{
		{"Bert-Base @ 1000 req/s", model.BertBase(), 150 * time.Millisecond, 1000},
		{"Bert-Large @ 700 req/s", model.BertLarge(), 450 * time.Millisecond, 700},
	}
	for _, st := range streams {
		fmt.Fprintf(w, "-- %s, 10 GPUs, Twitter-Stable --\n", st.name)
		tr, err := trace.Generate(trace.Stable(opt.Seed, st.rate, dur))
		if err != nil {
			return err
		}
		systems, err := fourSystems(st.lm, st.slo, tr)
		if err != nil {
			return err
		}
		results, err := runComparison(w, systems, tr, 10, nil)
		if err != nil {
			return err
		}
		printReductions(w, results)
	}
	fmt.Fprintln(w, "(paper: Arlo mean -70.3%/-66.7% vs ST, -23.7%/-29.2% vs DT, -24.9%/-39.3% vs INFaaS)")
	return nil
}

// Fig7 sweeps the request load for the Bert-Base stream on 10 GPUs: all
// schemes are comparable at low load; ST deteriorates first as padding
// saturates the cluster.
func Fig7(w io.Writer, opt Options) error {
	dur := 25 * time.Second
	if opt.Full {
		dur = 2 * time.Minute
	}
	lm := model.BertBase()
	slo := 150 * time.Millisecond
	loads := []float64{400, 800, 1200, 1600, 2000, 2400}
	tw := newTab(w)
	fmt.Fprintln(tw, "load(req/s)\tST mean(ms)\tDT mean(ms)\tINFaaS mean(ms)\tArlo mean(ms)")
	for _, rate := range loads {
		tr, err := trace.Generate(trace.Stable(opt.Seed, rate, dur))
		if err != nil {
			return err
		}
		systems, err := fourSystems(lm, slo, tr)
		if err != nil {
			return err
		}
		row := map[string]time.Duration{}
		for _, s := range systems {
			cfg, err := s.SimConfig(tr, 10, 20*time.Second)
			if err != nil {
				return err
			}
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			row[s.Name] = res.Summary.Mean
		}
		fmt.Fprintf(tw, "%.0f\t%s\t%s\t%s\t%s\n", rate, ms(row["ST"]), ms(row["DT"]), ms(row["INFaaS"]), ms(row["Arlo"]))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: metrics comparable below ~1k req/s; ST's queueing explodes first as load grows)")
	return nil
}

// Fig8 runs the auto-scaling comparison: a highly varying Bert-Large
// stream starting from 5 GPUs with target-tracking scaling. The load
// varies on the minutes scale — the regime a reactive scaler can track
// (the paper's Twitter load swings over minutes; second-scale bursts are
// the Request Scheduler's job, Table 4). Arlo should serve the same
// traffic with the fewest time-weighted GPUs and the best tail latency
// (paper: 5.49 GPUs vs 6.38 DT, 6.80 INFaaS, 8.13 ST; p98 330 ms vs
// 397/404/430).
func Fig8(w io.Writer, opt Options) error {
	dur := 6 * time.Minute
	if opt.Full {
		dur = 12 * time.Minute
	}
	lm := model.BertLarge()
	slo := 450 * time.Millisecond
	rate := 500.0
	tr, err := trace.Generate(trace.Config{
		Seed:     opt.Seed,
		Duration: dur,
		Arrivals: trace.MMPP{
			// Minute-scale modulation: mean = (0.6*60 + 1.5*30)/90 = 0.9 base.
			LowRate:  0.6 * rate / 0.9,
			HighRate: 1.5 * rate / 0.9,
			MeanLow:  60 * time.Second,
			MeanHigh: 30 * time.Second,
		},
		Lengths: trace.TwitterRecalibrated(opt.Seed),
	})
	if err != nil {
		return err
	}
	systems, err := fourSystems(lm, slo, tr)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "scheme\tscaling\ttime-weighted GPUs\tfinal GPUs\tp98(ms)\tscale-outs\tscale-ins")
	for _, s := range systems {
		cfg, err := s.SimConfig(tr, 5, 30*time.Second)
		if err != nil {
			return err
		}
		// Arlo uses target tracking (section 4); the baselines use the
		// headroom heuristic from INFaaS (section 5, Compared schemes).
		scaling := "headroom"
		if s.Name == "Arlo" {
			scaling = "target-tracking"
			scaler, err := allocator.NewAutoScaler(slo)
			if err != nil {
				return err
			}
			cfg.Scaler = scaler
		} else {
			cfg.Scaler = &allocator.HeadroomScaler{}
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.0f\t%s\t%d\t%d\n",
			s.Name, scaling, res.TimeWeightedGPUs, res.GPUs.Last(), ms(res.Summary.P98), res.ScaleOuts, res.ScaleIns)
	}
	return tw.Flush()
}

// Table2 measures the Runtime Scheduler's allocation solve time at the
// paper's three scales (50 GPUs/8 runtimes, 200/12, 1000/16), averaged
// over 20 runs with Twitter-shaped demand.
func Table2(w io.Writer, opt Options) error {
	runs := 20
	tw := newTab(w)
	fmt.Fprintln(tw, "#GPU\t#runtimes\ttime(s)\tpaper(s)")
	paper := []string{"0.156", "0.623", "2.612"}
	cases := []struct{ gpus, runtimes int }{{50, 8}, {200, 12}, {1000, 16}}
	for ci, c := range cases {
		solver, q, err := table2Instance(c.gpus, c.runtimes, opt.Seed+int64(ci))
		if err != nil {
			return err
		}
		var total time.Duration
		for r := 0; r < runs; r++ {
			start := time.Now()
			if _, err := solver.Allocate(c.gpus, q); err != nil {
				return err
			}
			total += time.Since(start)
		}
		fmt.Fprintf(tw, "%d\t%d\t%.4f\t%s\n", c.gpus, c.runtimes, (total / time.Duration(runs)).Seconds(), paper[ci])
	}
	return tw.Flush()
}

// table2Instance builds a solver and demand vector for an allocation
// problem with the given scale. Runtime counts beyond 8 use a wider
// max-length span (the paper's larger deployments profile more shapes).
func table2Instance(gpus, runtimes int, seed int64) (*allocator.Solver, []float64, error) {
	arch := model.Arch{
		Name:         fmt.Sprintf("bench-%d", runtimes),
		Layers:       12,
		Hidden:       768,
		Heads:        12,
		Intermediate: 3072,
		MaxLength:    64 * runtimes,
		TileStep:     64,
	}
	// Anchor latencies scale linearly with the span, BERT-Base-like.
	latTile := 1150 * time.Microsecond
	latMax := latTile * time.Duration(4*runtimes) / 8
	lm, err := model.Calibrate(arch, latTile, latMax, 3.56, 1.22)
	if err != nil {
		return nil, nil, err
	}
	p, err := profiler.StaticProfile(lm, arch.RuntimeLengths(), 150*time.Millisecond)
	if err != nil {
		return nil, nil, err
	}
	solver, err := allocator.NewSolver(p)
	if err != nil {
		return nil, nil, err
	}
	// Demand shaped like the Twitter distribution (heavy short bins),
	// scaled so the cluster is ~60% subscribed.
	rng := rand.New(rand.NewSource(seed))
	q := make([]float64, runtimes)
	weight := 0.0
	for i := range q {
		q[i] = math.Exp(-0.4*float64(i)) * (0.8 + 0.4*rng.Float64())
		weight += q[i] / float64(p.Runtimes[i].Capacity)
	}
	scale := 0.6 * float64(gpus) / weight
	for i := range q {
		q[i] *= scale
	}
	return solver, q, nil
}

// Fig9 measures Request Scheduler dispatch overhead at large scale: 12
// runtimes, 200-1200 instances, a burst of 2x concurrent requests, for
// several peek limits L. The paper reports ~0.737 ms for a 2400-request
// burst over 1200 instances.
func Fig9(w io.Writer, opt Options) error {
	const runtimes = 12
	maxLens := make([]int, runtimes)
	for i := range maxLens {
		maxLens[i] = 64 * (i + 1)
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "instances\trequests\tL\tburst total(ms)\tper dispatch(us)")
	for _, instances := range []int{200, 400, 800, 1200} {
		requests := 2 * instances
		for _, L := range []int{2, 6, 12} {
			total, err := fig9Burst(maxLens, instances, requests, L, opt.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%.3f\t%.3f\n",
				instances, requests, L,
				float64(total)/float64(time.Millisecond),
				float64(total)/float64(requests)/float64(time.Microsecond))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: ~0.737 ms for a 2400-request burst over 1200 instances; larger L costs slightly more)")
	return nil
}

// fig9Burst times dispatching a burst of requests over a synthetic
// deployment.
func fig9Burst(maxLens []int, instances, requests, L int, seed int64) (time.Duration, error) {
	ml, err := queue.NewMultiLevel(maxLens)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < instances; id++ {
		in := queue.NewInstance(id, id%len(maxLens), rng.Intn(40), 60)
		if err := ml.Add(in); err != nil {
			return 0, err
		}
	}
	rs, err := dispatch.NewRequestSchedulerParams(ml, 0.85, 0.9, L)
	if err != nil {
		return 0, err
	}
	lengths := make([]int, requests)
	maxLen := maxLens[len(maxLens)-1]
	for i := range lengths {
		lengths[i] = 1 + rng.Intn(maxLen)
	}
	start := time.Now()
	for _, l := range lengths {
		if _, _, err := rs.DispatchCtx(context.Background(), l); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// Calibration reproduces section 5.2.1 in two stages, as the paper did:
// a calibration clip measures the real-time prototype's fixed per-request
// overhead (the paper measured 0.8 ms on its testbed for network and
// host-to-device transfers; our emulated workers' overhead is sleep and
// scheduling jitter), the simulator adopts it, and a held-out clip
// validates the agreement. The paper reports mean within 4.3% and p98
// within 2.6%. This experiment runs in real time (about the trace
// duration).
func Calibration(w io.Writer, opt Options) error {
	dur := 10 * time.Second
	rate := 300.0
	if opt.Full {
		dur = 40 * time.Second
	}
	lm := model.BertBase()
	slo := 150 * time.Millisecond
	p, err := profiler.StaticProfile(lm, lm.Arch().RuntimeLengths(), slo)
	if err != nil {
		return err
	}
	tr, err := trace.Generate(trace.Stable(opt.Seed, rate, dur))
	if err != nil {
		return err
	}
	calibClip := tr.Clip(0, dur/2)
	validClip := tr.Clip(dur/2, dur)
	solver, err := allocator.NewSolver(p)
	if err != nil {
		return err
	}
	al, err := solver.Allocate(8, tr.BinDemand(p.MaxLengths(), slo))
	if err != nil {
		return err
	}
	factory := dispatch.Policy("RS")
	replayBoth := func(clip *trace.Trace, overhead time.Duration) (proto, simr metrics.Summary, err error) {
		// The prototype side is an event-free chaos.Run in real time on the
		// direct entry point (even seed), reporting raw wall-clock latency.
		rep, err := chaos.Run(chaos.Config{
			Profile:    p,
			Allocation: al.N,
			Dispatcher: factory,
			Trace:      clip,
			TimeScale:  1,
		})
		if err == nil {
			err = rep.Check()
		}
		if err != nil {
			return proto, simr, err
		}
		lats := make([]time.Duration, 0, len(rep.Samples))
		for i := range rep.Samples {
			if rep.Samples[i].Err == nil {
				lats = append(lats, rep.Samples[i].Span.Total)
			}
		}
		sr, err := sim.Run(sim.Config{
			Profile:           p,
			Trace:             clip,
			InitialAllocation: al.N,
			Dispatcher:        factory,
			Overhead:          overhead,
		})
		if err != nil {
			return proto, simr, err
		}
		return metrics.Summarize(lats, slo), sr.Summary, nil
	}
	// Stage 1: measure the prototype's fixed per-request overhead.
	proto1, sim1, err := replayBoth(calibClip, -1)
	if err != nil {
		return err
	}
	overhead := proto1.Mean - sim1.Mean
	if overhead < 0 {
		overhead = 0
	}
	fmt.Fprintf(w, "calibration clip: prototype mean %s ms vs raw simulator %s ms -> fixed overhead %.3f ms/request\n",
		ms(proto1.Mean), ms(sim1.Mean), float64(overhead)/float64(time.Millisecond))
	// Stage 2: validate on the held-out clip.
	proto2, sim2, err := replayBoth(validClip, overhead)
	if err != nil {
		return err
	}
	meanDiff := relDiff(proto2.Mean, sim2.Mean)
	p98Diff := relDiff(proto2.P98, sim2.P98)
	tw := newTab(w)
	fmt.Fprintln(tw, "metric\tprototype(ms)\tsimulator(ms)\tdiff%")
	fmt.Fprintf(tw, "mean\t%s\t%s\t%.1f\n", ms(proto2.Mean), ms(sim2.Mean), meanDiff)
	fmt.Fprintf(tw, "p98\t%s\t%s\t%.1f\n", ms(proto2.P98), ms(sim2.P98), p98Diff)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: mean within 4.3%, p98 within 2.6%, with a 0.8 ms/request fixed overhead)")
	return nil
}

func relDiff(a, b time.Duration) float64 {
	if a <= 0 {
		return 0
	}
	return 100 * math.Abs(float64(a-b)) / float64(a)
}
