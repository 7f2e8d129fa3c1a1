package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/queue"
	"arlo/internal/trace"
)

// Fig1 regenerates the sequence-length CDFs of real-world-calibrated
// traces at the 10-minute and 10-second scales: the long window's tail is
// heavier (paper: p50 21 at both scales; p98 72 vs 58).
func Fig1(w io.Writer, opt Options) error {
	tr, err := trace.Generate(trace.Config{
		Seed:     opt.Seed,
		Duration: 10 * time.Minute,
		Arrivals: trace.Poisson{Rate: 300},
		Lengths:  trace.TwitterLengths(opt.Seed),
	})
	if err != nil {
		return err
	}
	long := tr.Stats()
	fmt.Fprintf(w, "10-minute window: n=%d p50=%d p98=%d max=%d\n", long.Count, long.Median, long.P98, long.Max)

	var sumP50, sumP98 float64
	clips := 0
	for m := 0; m < 10; m++ {
		from := time.Duration(m) * time.Minute
		clip := tr.Clip(from, from+10*time.Second)
		st := clip.Stats()
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "10-second clip @%dm: n=%d p50=%d p98=%d\n", m, st.Count, st.Median, st.P98)
		sumP50 += float64(st.Median)
		sumP98 += float64(st.P98)
		clips++
	}
	if clips > 0 {
		fmt.Fprintf(w, "10-second average: p50=%.1f p98=%.1f (paper: p50 21.0, p98 58 vs 71 over 10 minutes)\n",
			sumP50/float64(clips), sumP98/float64(clips))
	}
	// Selected CDF points of the long window.
	tw := newTab(w)
	fmt.Fprintln(tw, "length\tCDF")
	cdf := tr.LengthCDF()
	step := len(cdf) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(cdf); i += step {
		fmt.Fprintf(tw, "%d\t%.3f\n", cdf[i].Length, cdf[i].F)
	}
	return tw.Flush()
}

// Fig2 regenerates the static-vs-dynamic compiled latency curves for
// BERT-Base (2a), BERT-Large (2b) and Dolly (2c): the staircase static
// curve and the inflated dynamic curve.
func Fig2(w io.Writer, _ Options) error {
	for _, lm := range []*model.LatencyModel{model.BertBase(), model.BertLarge(), model.Dolly()} {
		fmt.Fprintf(w, "-- %s --\n", lm.Arch().Name)
		tw := newTab(w)
		fmt.Fprintln(tw, "length\tstatic(ms)\tdynamic(ms)\tinflation")
		for s := 32; s <= lm.Arch().MaxLength; s += 32 {
			st := lm.IdealStaticLatency(s)
			dy := lm.DynamicLatency(s)
			fmt.Fprintf(tw, "%d\t%s\t%s\t%.2fx\n", s, ms(st), ms(dy), float64(dy)/float64(st))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		span := float64(lm.IdealStaticLatency(512)) / float64(lm.IdealStaticLatency(64))
		fmt.Fprintf(w, "static lat(512)/lat(64) = %.2fx\n", span)
	}
	fmt.Fprintln(w, "(paper anchors: BERT-Base 4.22x, BERT-Large 5.25x; TensorRT dynamic inflation 1.22-3.56x; Dolly/TVM ~2.86x average)")
	return nil
}

// fig4Outcome is the violation count per policy in the motivating example.
type fig4Outcome struct {
	Ideal, Greedy, Arlo, Optimal int
}

// fig4Run plays the paper's Fig. 4 scenario against one dispatch policy
// and counts SLO violations as dispatches beyond instance capacity.
func fig4Run(policy string) (int, error) {
	ml, err := queue.NewMultiLevel([]int{128, 256, 512})
	if err != nil {
		return 0, err
	}
	// GPU0/GPU1: 128-runtimes nearly full (3 free slots in total);
	// GPU2: 256-runtime with 12 free slots; GPU3: 512-runtime, 14 slots.
	setup := []*queue.Instance{
		queue.NewInstance(0, 0, 18, 20),
		queue.NewInstance(1, 0, 19, 20),
		queue.NewInstance(2, 1, 8, 20),
		queue.NewInstance(3, 2, 0, 14),
	}
	for _, in := range setup {
		if err := ml.Add(in); err != nil {
			return 0, err
		}
	}
	d, err := dispatch.New(policy, ml)
	if err != nil {
		return 0, err
	}
	// Eight initial short requests, then fourteen long latecomers.
	for i := 0; i < 8; i++ {
		if _, _, err := d.DispatchCtx(context.Background(), 100); err != nil {
			return 0, err
		}
	}
	for i := 0; i < 14; i++ {
		if _, _, err := d.DispatchCtx(context.Background(), 400); err != nil {
			return 0, err
		}
	}
	violations := 0
	for _, in := range setup {
		if over := in.Outstanding() - in.MaxCapacity; over > 0 {
			violations += over
		}
	}
	return violations, nil
}

// fig4Play computes all policies.
func fig4Play() (fig4Outcome, error) {
	var out fig4Outcome
	var err error
	if out.Ideal, err = fig4Run("ILB"); err != nil {
		return out, err
	}
	if out.Greedy, err = fig4Run("IG"); err != nil {
		return out, err
	}
	if out.Arlo, err = fig4Run("RS"); err != nil {
		return out, err
	}
	// Optimal: 3 shorts fit the 128 slots, 5 the 256 slots, the 14 longs
	// exactly fill the 512 instance.
	out.Optimal = 0
	return out, nil
}

// Fig4 regenerates the motivating example: a 4-GPU cluster where the
// ideal (least padding) policy strands 5 early requests, the greedy
// (least load) policy strands 8 latecomers, and a demotion-aware policy
// strands none.
func Fig4(w io.Writer, _ Options) error {
	out, err := fig4Play()
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "policy\tSLO violations\tpaper")
	fmt.Fprintf(tw, "ideal (least padding, ILB)\t%d\t5\n", out.Ideal)
	fmt.Fprintf(tw, "greedy (least load, IG)\t%d\t8\n", out.Greedy)
	fmt.Fprintf(tw, "Arlo Request Scheduler\t%d\t0\n", out.Arlo)
	fmt.Fprintf(tw, "optimal\t%d\t0\n", out.Optimal)
	return tw.Flush()
}

// Fig5 walks Algorithm 1 through the paper's example: a length-200
// request, lambda 0.85, alpha 0.9, L 3, skipping the congested 256
// runtime for the 512 head.
func Fig5(w io.Writer, _ Options) error {
	ml, err := queue.NewMultiLevel([]int{64, 128, 256, 512})
	if err != nil {
		return err
	}
	instances := []*queue.Instance{
		queue.NewInstance(10, 0, 30, 120),
		queue.NewInstance(20, 1, 40, 80),
		queue.NewInstance(30, 2, 54, 60),
		queue.NewInstance(31, 2, 58, 60),
		queue.NewInstance(40, 3, 28, 48),
		queue.NewInstance(41, 3, 40, 48),
	}
	for _, in := range instances {
		if err := ml.Add(in); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "request length 200; candidates: Q3 (256), Q4 (512); lambda=0.85, alpha=0.9, L=3")
	lambda := 0.85
	for _, lvl := range ml.CandidateLevels(200) {
		head := ml.Level(lvl).Front()
		fmt.Fprintf(w, "level %d (max_length %d): head %d/%d = %.3f vs threshold %.3f -> ",
			lvl, ml.MaxLength(lvl), head.Outstanding(), head.MaxCapacity, head.Congestion(), lambda)
		if head.Congestion() < lambda {
			fmt.Fprintf(w, "dispatch to instance %d\n", head.ID)
			break
		}
		fmt.Fprintln(w, "congested, demote")
		lambda *= 0.9
	}
	rs, err := dispatch.NewRequestSchedulerParams(ml, 0.85, 0.9, 3)
	if err != nil {
		return err
	}
	in, _, err := rs.DispatchCtx(context.Background(), 200)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Algorithm 1 dispatched to instance %d (runtime max_length %d) — paper: the 28/48 head of Q4\n",
		in.ID, ml.MaxLength(in.Runtime))
	return nil
}
