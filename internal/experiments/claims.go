package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/chaos"
	"arlo/internal/cluster"
	"arlo/internal/controller"
	"arlo/internal/metrics"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/tenant"
	"arlo/internal/trace"
)

// The claims are the A/B results of the live serving stack that reproduce
// on any host with a wide margin. Each is asserted, not recorded: its arms
// run through chaos.Run (so every arm is under the conservation audit),
// one summariser reduces their samples, and the measured value must clear
// a threshold set at most about half the effect seen on a 2-CPU sandbox.
// A result belongs to the run that printed it — there is no results file.

// claimReps is how many times each claim is measured; the verdict is on
// the median.
const claimReps = 3

// claimSLO is the latency objective every claim's profile is built for.
const claimSLO = 150 * time.Millisecond

// claim is one asserted A/B result.
type claim struct {
	id, title string
	// arms names what is compared and metric what value the comparison
	// yields (a ratio or a difference, larger is better).
	arms, metric string
	// atLeast is the threshold the median repetition must reach.
	atLeast float64
	// measure runs every arm once and returns the value plus the side
	// numbers worth printing. An arm whose ledger fails its audit, or that
	// breaks a side condition no host can excuse (a refusal of the wrong
	// type, a request lost from a drain), is an error; a side condition
	// that is itself a timing is a miss.
	measure func(opt Options) (value float64, detail string, err error)
}

// miss is a repetition whose timing side condition did not hold. It reads
// as zero, below every threshold, so the median judges it like any low
// reading: one stalled repetition on a shared host does not fail a claim,
// two do.
func miss(format string, a ...any) (float64, string, error) {
	return 0, "missed: " + fmt.Sprintf(format, a...), nil
}

// claims lists the asserted results; All appends them to the paper's
// figures.
func claims() []claim {
	return []claim{
		{"claim-batch", "Dynamic batching drains the Fig. 9 uniform burst faster than sequential workers and sustains 1.25x their throughput inside the SLO",
			"batched(8) vs sequential", "drain speedup", 1.5, measureBatch},
		{"claim-generate", "Continuous (iteration-level) batching out-drains run-to-completion on a generative burst at no worse p99 TTFT",
			"continuous vs run-to-completion", "throughput ratio", 1.2, measureGenerate},
		{"claim-tenants", "Token-bucket admission shields a steady tenant's p99 from a 9x bursting neighbour",
			"token bucket vs shared queue", "victim p99 ratio", 2, measureTenants},
		{"claim-controller", "Live replanning recovers SLO attainment after the length mix drifts, inside its replacement budget",
			"controller vs frozen allocation", "post-drift attainment gain", 0.2, measureController},
		{"claim-router", "Length-aware routing on 1 s stale snapshots balances three unequal shards where round-robin cannot and least-loaded herds",
			"length-aware vs round-robin", "imbalance ratio", 1 / 0.75, measureRouter},
	}
}

// spec makes the claim runnable by id like any figure.
func (c claim) spec() Spec {
	return Spec{c.id, c.title, func(w io.Writer, opt Options) error { return runClaims(w, opt, c) }}
}

// runClaims measures each claim claimReps times and prints the envelope
// and one row per claim. It returns an error — the runner's non-zero exit
// — when a repetition returns one, or when a median misses its threshold.
func runClaims(w io.Writer, opt Options, cs ...claim) error {
	fmt.Fprintln(w, envelope(opt))
	tw := newTab(w)
	defer tw.Flush()
	fmt.Fprintln(tw, "claim\tarms\tmetric\tmedian\tmin-max\tthreshold\tverdict\tat the median")
	var missed []string
	for _, c := range cs {
		type reading struct {
			value  float64
			detail string
		}
		reads := make([]reading, claimReps)
		for i := range reads {
			v, detail, err := c.measure(opt)
			if err != nil {
				return fmt.Errorf("%s: repetition %d: %w", c.id, i+1, err)
			}
			reads[i] = reading{v, detail}
		}
		sort.Slice(reads, func(i, j int) bool { return reads[i].value < reads[j].value })
		median := reads[claimReps/2]
		verdict := "ok"
		if median.value < c.atLeast {
			verdict = "NOT MET"
			missed = append(missed, c.id)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%.2f-%.2f\t>= %.2f\t%s\t%s\n", c.id, c.arms, c.metric,
			median.value, reads[0].value, reads[claimReps-1].value, c.atLeast, verdict, median.detail)
	}
	if len(missed) > 0 {
		return fmt.Errorf("not met: %s", strings.Join(missed, ", "))
	}
	return nil
}

// envelope is the one line that says where and how a result was measured.
func envelope(opt Options) string {
	mode := "quick"
	if opt.Full {
		mode = "full"
	}
	rev, dirty := "", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = " rev=" + s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return fmt.Sprintf("envelope: %s %s/%s cpus=%d gomaxprocs=%d seed=%d %s reps=%d%s%s", runtime.Version(),
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), opt.Seed, mode, claimReps, rev, dirty)
}

// runArm is the one in-process arm runner: chaos.Run paces the trace, and
// no number leaves an arm whose ledger does not balance.
func runArm(name string, cfg chaos.Config) (*chaos.Report, error) {
	rep, err := audited(chaos.Run(cfg))
	if err != nil {
		return nil, fmt.Errorf("arm %s: %w", name, err)
	}
	return rep, nil
}

// audited passes a report through only if it survives the conservation
// audit.
func audited(rep *chaos.Report, err error) (*chaos.Report, error) {
	if err == nil {
		err = rep.Check()
	}
	return rep, err
}

// summary is the one reduction of an arm's samples. Latencies are modeled
// time, so they compare with Profile.SLO whatever the arm's time scale.
type summary struct {
	requests, completed int
	// p50, p99 and ttftP99 are over completions (nearest rank).
	p50, p99, ttftP99 time.Duration
	// attainment is completions within the SLO over all requests: a
	// refused or failed request misses the limit.
	attainment float64
}

// summarize reduces the samples keep selects (nil keeps all).
func summarize(samples []chaos.Sample, slo time.Duration, keep func(chaos.Sample) bool) summary {
	var (
		s         summary
		lat, ttft []time.Duration
		within    int
	)
	for _, sm := range samples {
		if keep != nil && !keep(sm) {
			continue
		}
		s.requests++
		if sm.Err != nil {
			continue
		}
		lat = append(lat, sm.Span.Total)
		ttft = append(ttft, sm.Span.TTFT)
		if sm.Span.Total <= slo {
			within++
		}
	}
	slices.Sort(lat)
	slices.Sort(ttft)
	s.completed = len(lat)
	s.p50, s.p99, s.ttftP99 = metrics.Quantile(lat, 0.50), metrics.Quantile(lat, 0.99), metrics.Quantile(ttft, 0.99)
	if s.requests > 0 {
		s.attainment = float64(within) / float64(s.requests)
	}
	return s
}

// allCompleted is the side condition of the arms that offer no more than
// the cluster can take: nothing may be refused.
func (s summary) allCompleted(arm string) error {
	if s.completed != s.requests {
		return fmt.Errorf("arm %s: %d of %d requests completed", arm, s.completed, s.requests)
	}
	return nil
}

// uniformLengths samples sequence lengths uniformly over [lo, hi]; over
// the model's full range it is the Fig. 9 workload's length recipe.
type uniformLengths struct{ lo, hi int }

func (u uniformLengths) SampleLength(rng *rand.Rand, _ time.Duration) int {
	return u.lo + rng.Intn(u.hi-u.lo+1)
}

// burst is the arrival process of a drain test: n requests, all at once.
type burst int

func (b burst) Arrivals(*rand.Rand, time.Duration) []time.Duration {
	return make([]time.Duration, b)
}

// shifted delays every arrival of the trace, in place.
func shifted(tr *trace.Trace, by time.Duration) *trace.Trace {
	for i := range tr.Requests {
		tr.Requests[i].At += by
	}
	return tr
}

// merged joins traces into one arrival-ordered trace of the given length.
func merged(dur time.Duration, parts ...*trace.Trace) *trace.Trace {
	out := &trace.Trace{Duration: dur}
	for _, p := range parts {
		out.Requests = append(out.Requests, p.Requests...)
	}
	sort.SliceStable(out.Requests, func(i, j int) bool { return out.Requests[i].At < out.Requests[j].At })
	return out
}

// allocationFor solves the runtime-allocation program for the trace's own
// length mix.
func allocationFor(p *profiler.Profile, gpus int, tr *trace.Trace) ([]int, error) {
	solver, err := allocator.NewSolver(p)
	if err != nil {
		return nil, err
	}
	al, err := solver.Allocate(gpus, tr.BinDemand(p.MaxLengths(), p.SLO))
	if err != nil {
		return nil, err
	}
	return al.N, nil
}

// measureBatch drains the Fig. 9 workload (uniform lengths over the
// model's full range) as one burst with batching off and at cap 8, then
// drives the batched cluster with Poisson arrivals at 1.25x the sequential
// arm's measured throughput — a load sequential workers cannot serve at
// all — and requires its p99 inside the SLO. The batch-cost alpha is 0.3,
// the marginal cost calibrated against GPU-profiled batch scaling for
// encoder models (batch 8 at ~3.1x batch-1 latency), not the model's
// conservative 0.5 default.
func measureBatch(opt Options) (float64, string, error) {
	requests, sustain := 1600, 3*time.Second
	if opt.Full {
		requests, sustain = 6400, 8*time.Second
	}
	lm := model.BertBase()
	if err := lm.SetBatchAlpha(0.3); err != nil {
		return 0, "", err
	}
	p, err := profiler.StaticProfile(lm, lm.Arch().RuntimeLengths(), claimSLO)
	if err != nil {
		return 0, "", err
	}
	lengths := uniformLengths{1, lm.Arch().MaxLength}
	// The burst's nominal duration (1,000 req/s) only scales its demand
	// vector into the solver's subscribed regime: uniform lengths put the
	// same share in every bin, but the long bins cost several times more.
	drain, err := trace.Generate(trace.Config{Seed: opt.Seed, Duration: time.Duration(requests) * time.Millisecond,
		Arrivals: burst(requests), Lengths: lengths})
	if err != nil {
		return 0, "", err
	}
	alloc, err := allocationFor(p, 8, drain)
	if err != nil {
		return 0, "", err
	}
	cfg := chaos.Config{Profile: p, Allocation: alloc, Trace: drain, TimeScale: 1, Seed: opt.Seed}
	seq, err := runArm("sequential", cfg)
	if err != nil {
		return 0, "", err
	}
	cfg.MaxBatch = 8
	bat, err := runArm("batched", cfg)
	if err != nil {
		return 0, "", err
	}
	if err := errors.Join(summarize(seq.Samples, p.SLO, nil).allCompleted("sequential"),
		summarize(bat.Samples, p.SLO, nil).allCompleted("batched")); err != nil {
		return 0, "", err
	}
	rate := 1.25 * float64(requests) / seq.Elapsed.Seconds()
	cfg.Trace, err = trace.Generate(trace.Config{Seed: opt.Seed + 1, Duration: sustain,
		Arrivals: trace.Poisson{Rate: rate}, Lengths: lengths})
	if err != nil {
		return 0, "", err
	}
	sus, err := runArm("sustained", cfg)
	if err != nil {
		return 0, "", err
	}
	s := summarize(sus.Samples, p.SLO, nil)
	if err := s.allCompleted("sustained"); err != nil {
		return 0, "", err
	}
	if s.p99 > p.SLO {
		return miss("sustained %.0f req/s at p99 %s ms, outside the SLO", rate, ms(s.p99))
	}
	return seq.Elapsed.Seconds() / bat.Elapsed.Seconds(),
		fmt.Sprintf("sustained %.0f req/s at p99 %s ms", rate, ms(s.p99)), nil
}

// measureGenerate drains one generative burst — uniform prompts,
// geometric output budgets (mean 48, max 256) — through four instances of
// the 512 runtime twice: with each batch held until its last member
// finishes decoding, and with the batch re-formed every iteration.
// Continuous batching must win throughput while holding p99 TTFT: early
// exits return capacity sooner and queued prompts reach their prefill
// without waiting out a stranger's long generation.
func measureGenerate(opt Options) (float64, string, error) {
	requests := 256
	if opt.Full {
		requests = 1024
	}
	lm := model.BertBase()
	p, err := profiler.StaticProfile(lm, []int{lm.Arch().MaxLength}, claimSLO)
	if err != nil {
		return 0, "", err
	}
	tr, err := trace.Generate(trace.Config{Seed: opt.Seed, Duration: time.Second, Arrivals: burst(requests),
		Lengths: uniformLengths{1, lm.Arch().MaxLength}, Outputs: trace.GeometricOutputs{Mean: 48, Max: 256}})
	if err != nil {
		return 0, "", err
	}
	cfg := chaos.Config{Profile: p, Allocation: []int{4}, Trace: tr, TimeScale: 1, Seed: opt.Seed, MaxBatch: 8}
	rtc, err := runArm("run-to-completion", cfg)
	if err != nil {
		return 0, "", err
	}
	cfg.Generative = true
	cont, err := runArm("continuous", cfg)
	if err != nil {
		return 0, "", err
	}
	r, c := summarize(rtc.Samples, p.SLO, nil), summarize(cont.Samples, p.SLO, nil)
	if err := errors.Join(r.allCompleted("run-to-completion"), c.allCompleted("continuous")); err != nil {
		return 0, "", err
	}
	if c.ttftP99 > r.ttftP99 {
		return miss("continuous p99 TTFT %s ms is worse than run-to-completion's %s", ms(c.ttftP99), ms(r.ttftP99))
	}
	return rtc.Elapsed.Seconds() / cont.Elapsed.Seconds(),
		fmt.Sprintf("p99 TTFT %s vs %s ms", ms(c.ttftP99), ms(r.ttftP99)), nil
}

// measureTenants replays a steady interactive victim (100 req/s) beside a
// noisy tenant bursting at 9x that through the middle half of the window,
// once through one shared queue and once behind the tenant registry, whose
// token bucket caps the noisy tenant near its fair share of token
// throughput; admitted jobs of both tenants place inline in arrival order.
// Admission must fire, and every noisy refusal must be the typed
// rate-limit error; that the per-tenant books agree with the registry's is
// the arm's audit.
func measureTenants(opt Options) (float64, string, error) {
	const victim, noisy = "victim", "noisy"
	dur := 2 * time.Second
	if opt.Full {
		dur = 6 * time.Second
	}
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, claimSLO)
	if err != nil {
		return 0, "", err
	}
	tagged := func(seed int64, rate float64, id string, dur time.Duration) (*trace.Trace, error) {
		cfg := trace.Stable(seed, rate, dur)
		cfg.Tenants = trace.WeightedTenants{IDs: []string{id}}
		return trace.Generate(cfg)
	}
	steady, err := tagged(opt.Seed+1, 100, victim, dur)
	if err != nil {
		return 0, "", err
	}
	flood, err := tagged(opt.Seed+2, 900, noisy, dur/2)
	if err != nil {
		return 0, "", err
	}
	cfg := chaos.Config{Profile: p, Allocation: []int{1, 1}, Trace: merged(dur, steady, shifted(flood, dur/4)),
		TimeScale: 0.05, Seed: opt.Seed}
	shared, err := runArm("shared queue", cfg)
	if err != nil {
		return 0, "", err
	}
	cfg.Tenants = []tenant.Config{
		{ID: victim, SLOClass: "interactive"},
		{ID: noisy, SLOClass: "batch", Capacity: 3000, RefillPerSec: 4000},
	}
	prot, err := runArm("token bucket", cfg)
	if err != nil {
		return 0, "", err
	}
	if prot.RateLimited == 0 {
		return 0, "", fmt.Errorf("admission never fired on the noisy burst")
	}
	for _, sm := range prot.Samples {
		if sm.Tenant == noisy && sm.Err != nil && !errors.Is(sm.Err, cluster.ErrRateLimited) {
			return 0, "", fmt.Errorf("a noisy refusal was not the typed rate-limit error: %w", sm.Err)
		}
	}
	isVictim := func(sm chaos.Sample) bool { return sm.Tenant == victim }
	before, after := summarize(shared.Samples, p.SLO, isVictim), summarize(prot.Samples, p.SLO, isVictim)
	if after.p99 <= 0 {
		return 0, "", fmt.Errorf("no victim request completed behind admission")
	}
	return float64(before.p99) / float64(after.p99),
		fmt.Sprintf("victim p99 %s -> %s ms, %d noisy requests rate-limited", ms(before.p99), ms(after.p99), prot.RateLimited), nil
}

// measureController serves a two-phase trace on 8 GPUs: short-heavy (the
// mix both arms' starting allocation is solved for), then long-heavy,
// where every request exceeds the 256 tile so only the max-length runtime
// serves it — at twice the capacity of the one such instance the frozen
// arm keeps, a quarter of the cluster's if every GPU converged there. The
// controller arm replans from each period's arrivals 16 times a phase with
// the default hysteresis (phase 1 stays quiet: the split is already
// right) and at most 2 replacements a period, as section 4 prescribes.
func measureController(opt Options) (float64, string, error) {
	phase := 4 * time.Second
	if opt.Full {
		phase = 10 * time.Second
	}
	p, err := profiler.StaticProfile(model.BertBase(), []int{64, 128, 256, 512}, claimSLO)
	if err != nil {
		return 0, "", err
	}
	short, err := trace.Generate(trace.Config{Seed: opt.Seed + 1, Duration: phase,
		Arrivals: trace.Poisson{Rate: 500}, Lengths: uniformLengths{1, 120}})
	if err != nil {
		return 0, "", err
	}
	long, err := trace.Generate(trace.Config{Seed: opt.Seed + 2, Duration: phase,
		Arrivals: trace.Poisson{Rate: 400}, Lengths: uniformLengths{257, 500}})
	if err != nil {
		return 0, "", err
	}
	alloc, err := allocationFor(p, 8, short)
	if err != nil {
		return 0, "", err
	}
	cfg := chaos.Config{Profile: p, Allocation: alloc, Trace: merged(2*phase, short, shifted(long, phase)),
		TimeScale: 0.2, Seed: opt.Seed, ControllerPeriod: phase / 16}
	frozen, err := runArm("frozen", cfg)
	if err != nil {
		return 0, "", err
	}
	cfg.Controller = &controller.Options{MaxReplacements: 2}
	ctl, err := runArm("controller", cfg)
	if err != nil {
		return 0, "", err
	}
	if ctl.Replans == 0 || ctl.Replacements > 2*ctl.Replans {
		return 0, "", fmt.Errorf("controller made %d replacements over %d replans; want some replans and at most 2 each",
			ctl.Replacements, ctl.Replans)
	}
	if f, c := summarize(frozen.Samples, p.SLO, nil), summarize(ctl.Samples, p.SLO, nil); c.attainment < f.attainment-0.02 {
		return miss("closing the loop cost attainment overall: %.2f vs frozen %.2f", c.attainment, f.attainment)
	}
	drifted := func(sm chaos.Sample) bool { return sm.At >= phase }
	f, c := summarize(frozen.Samples, p.SLO, drifted), summarize(ctl.Samples, p.SLO, drifted)
	return c.attainment - f.attainment, fmt.Sprintf("post-drift attainment %.2f vs %.2f, %d replacements over %d replans, %v -> %v",
		c.attainment, f.attainment, ctl.Replacements, ctl.Replans, alloc, ctl.FinalAllocation), nil
}
