// Package chaos is the deterministic fault-injection harness for the live
// cluster: it drives a real cluster.Cluster with a seeded synthetic load
// while executing a scripted schedule of instance crashes, slowdowns and
// recoveries, then audits the conservation invariants the failover design
// promises — every submitted request completes exactly once, is cancelled
// by its own context, or terminates with a typed error. No request is
// lost, and none is delivered twice.
//
// Determinism is in the inputs, not the interleaving: the load (arrival
// offsets, lengths, which requests carry a cancelling deadline) and the
// failure schedule derive entirely from the seed, so a failing seed
// replays the same stimulus. The goroutine interleaving underneath still
// varies — which is the point: the invariants must hold on every
// interleaving, and the harness checks them after each run. The same
// failure schedule can be cross-checked against the discrete-event
// simulator's failure model (sim.Failure), which shares its victim
// selection and demotion rule through queue.PickVictim.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/cluster"
	"arlo/internal/controller"
	"arlo/internal/dispatch"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/tenant"
	"arlo/internal/trace"
)

// Kind selects what an Event does to the cluster.
type Kind int

const (
	// Fail crashes the most loaded instance of Event.Runtime (-1 for
	// cluster-wide), displacing its work through the failover path; the
	// instance rejoins after Event.Downtime (0 keeps it down).
	Fail Kind = iota
	// Slow multiplies the execution latency of the most loaded instance
	// of Event.Runtime by Event.Factor until the end of the run.
	Slow
)

// Event is one scripted fault, timed in modeled time from the run start.
type Event struct {
	At       time.Duration
	Kind     Kind
	Runtime  int
	Downtime time.Duration
	Factor   float64
}

// Config describes one chaos run.
type Config struct {
	// Profile and Allocation define the cluster under test.
	Profile    *profiler.Profile
	Allocation []int
	// Dispatcher defaults to the paper's Request Scheduler.
	Dispatcher dispatch.Factory
	// Trace is the load; required. Arrival offsets are modeled time.
	Trace *trace.Trace
	// Events is the fault schedule, in modeled time.
	Events []Event
	// TimeScale compresses modeled time to wall time (default 0.02).
	TimeScale float64
	// Seed drives the cancellation draws (the load itself is already
	// deterministic via the trace's own seed) and picks the entry point:
	// Cluster.SubmitCtx on even seeds, Ingress.SubmitCtx on odd ones.
	Seed int64
	// CancelFraction of requests carry a deliberately tight deadline so
	// cancellation races the failure paths (default 0, max 1).
	CancelFraction float64
	// MaxBatch enables dynamic batching in the cluster under test (see
	// cluster.Config.MaxBatch); the conservation invariants must hold
	// per batch member exactly as they do per sequential request.
	MaxBatch int
	// BatchDelay bounds the batch-collection window in modeled time (see
	// cluster.Config.BatchDelay).
	BatchDelay time.Duration
	// Generative switches the cluster to the continuous (iteration-level)
	// batching loop and draws an output budget from [1, MaxNewTokens] for
	// every request whose trace entry has none. A budget the trace carries
	// (OutTokens) is honoured in every mode, so a run-to-completion arm is
	// MaxBatch > 1 with Generative off on a generative trace. Conservation
	// extends to the iteration level — a completed request must deliver
	// its full token count (crash-displaced partial generations restart,
	// they do not leak).
	Generative bool
	// MaxNewTokens bounds the drawn output budgets (default 32; only read
	// when Generative).
	MaxNewTokens int
	// Controller, when non-nil, runs the closed control loop during the
	// run with these options: at every ControllerPeriod of modeled time the
	// loop re-solves the allocation program from the period's arrivals and
	// applies the replacement plan — so replans race the scripted
	// failures, slowdowns and rejoins. Run sets the options' Period to
	// ControllerPeriod in wall time.
	// The conservation audit is unchanged: a replacement that displaces
	// in-flight work must still deliver every request exactly once or
	// reject it with a typed error.
	Controller *controller.Options
	// ControllerPeriod is the replanning cadence in modeled time (default
	// Trace.Duration/4; only read when Controller).
	ControllerPeriod time.Duration
	// Tenants, when non-empty, runs the cluster in multi-tenant mode:
	// every request the trace leaves untagged is assigned a seeded tenant
	// draw from this list, and the conservation audit extends per tenant —
	// token-bucket rejections must be typed, counted exactly once, and
	// agree with the registry's own books.
	Tenants []tenant.Config
}

// Sample is one submitted request's outcome, for callers that summarise
// latencies rather than audit books.
type Sample struct {
	// At is the modeled arrival offset.
	At time.Duration
	// Tenant is the trace's tag (or the seeded draw in multi-tenant
	// runs), set whether or not a registry is configured.
	Tenant string
	// Span is a completion's lifecycle record; Span.Total is its modeled
	// end-to-end latency.
	Span obs.Span
	// Err is a refusal's error; nil marks a completion.
	Err error
}

// Report is the audited outcome of one run. Submitted is partitioned
// exactly into the four outcome classes.
type Report struct {
	Submitted     int
	Completed     int
	Cancelled     int
	Unserviceable int
	// OtherRejected counts typed submission-path errors that are neither
	// cancellations nor budget exhaustion (congestion, no instances,
	// too-long).
	OtherRejected int
	// RateLimited counts token-bucket admission rejections (multi-tenant
	// runs only).
	RateLimited int
	// Unexpected collects errors outside the typed taxonomy — any entry
	// is an invariant violation.
	Unexpected []error

	// PerTenant partitions the outcome books by tenant id (multi-tenant
	// runs only).
	PerTenant map[string]*TenantBooks
	// TenantStats is the registry's own accounting at the end of the run,
	// cross-checked against PerTenant by Check.
	TenantStats []tenant.Stat

	// Replans and Replacements count control-loop activity (controller
	// runs only): how many periods solved, and how many instance
	// replacements the plans applied while racing the fault schedule.
	Replans      int64
	Replacements int64
	// Allocations is the cluster's per-runtime allocation after each
	// controller tick, in tick order (controller runs only).
	Allocations [][]int

	// Requeues splits the displaced-work counter by displacement point.
	RequeuesQueued   int64
	RequeuesInflight int64

	// Recorder exposes the observability books for deeper assertions.
	Recorder *obs.Recorder
	// FinalAllocation is the per-runtime instance count after the run.
	FinalAllocation []int
	// FinalHealth summarizes instance health at the end of the run.
	FinalHealth obs.HealthSummary

	// Samples holds one entry per submitted request, in schedule order.
	Samples []Sample
	// Elapsed is the wall time from the first submission to the last
	// outcome.
	Elapsed time.Duration
}

// TenantBooks is one tenant's outcome partition in a multi-tenant run.
type TenantBooks struct {
	Submitted     int
	Completed     int
	Cancelled     int
	Unserviceable int
	OtherRejected int
	RateLimited   int
}

// Check audits the conservation invariants and returns the first
// violation:
//
//   - outcome partition: every submitted request is in exactly one of
//     {completed, cancelled, unserviceable, other-rejected};
//   - no untyped errors escaped;
//   - the recorder's books agree with the harness's own counts, which
//     rules out double-delivery (a request delivered twice would complete
//     once in the harness but twice in the recorder).
func (r *Report) Check() error {
	if len(r.Unexpected) > 0 {
		return fmt.Errorf("chaos: %d untyped errors, first: %w", len(r.Unexpected), r.Unexpected[0])
	}
	outcomes := r.Completed + r.Cancelled + r.Unserviceable + r.OtherRejected + r.RateLimited
	if outcomes != r.Submitted {
		return fmt.Errorf("chaos: conservation violated: %d outcomes for %d submissions", outcomes, r.Submitted)
	}
	rec := r.Recorder
	if got, want := rec.Completed(), int64(r.Completed); got != want {
		return fmt.Errorf("chaos: recorder completed %d, harness saw %d (double or lost delivery)", got, want)
	}
	// A deadline already spent when the ingress drain reaches the request
	// is booked as a rejection, not a cancellation; the submitter sees
	// ErrDeadlineExceeded either way.
	spent := rec.RejectedFor(obs.RejectDeadline)
	if got, want := rec.Cancelled()+spent, int64(r.Cancelled); got != want {
		return fmt.Errorf("chaos: recorder cancelled %d, harness saw %d", got, want)
	}
	if got, want := rec.Rejected()-spent, int64(r.Unserviceable+r.OtherRejected+r.RateLimited); got != want {
		return fmt.Errorf("chaos: recorder rejected %d, harness saw %d", got, want)
	}
	if bal := rec.InFlight(); bal != 0 {
		return fmt.Errorf("chaos: recorder books unbalanced by %d", bal)
	}
	return r.checkTenants()
}

// checkTenants audits the multi-tenant extension of the conservation
// invariants: the per-tenant books partition the totals, every tenant's
// outcomes partition its own submissions, and the registry's admission
// counters agree with what the harness observed — an admission decided
// twice (or a rejection also dispatched) breaks the agreement.
func (r *Report) checkTenants() error {
	if len(r.PerTenant) == 0 {
		return nil
	}
	var sub, rl int
	for id, b := range r.PerTenant {
		sub += b.Submitted
		rl += b.RateLimited
		if got := b.Completed + b.Cancelled + b.Unserviceable + b.OtherRejected + b.RateLimited; got != b.Submitted {
			return fmt.Errorf("chaos: tenant %s conservation violated: %d outcomes for %d submissions", id, got, b.Submitted)
		}
	}
	if sub != r.Submitted || rl != r.RateLimited {
		return fmt.Errorf("chaos: per-tenant books (%d submitted, %d rate-limited) do not partition totals (%d, %d)",
			sub, rl, r.Submitted, r.RateLimited)
	}
	stats := make(map[string]tenant.Stat, len(r.TenantStats))
	for _, st := range r.TenantStats {
		stats[st.ID] = st
	}
	for id, b := range r.PerTenant {
		st, ok := stats[id]
		if !ok {
			return fmt.Errorf("chaos: tenant %s missing from registry stats", id)
		}
		if st.Rejected != int64(b.RateLimited) {
			return fmt.Errorf("chaos: tenant %s registry rejected %d, harness saw %d", id, st.Rejected, b.RateLimited)
		}
		// A request cancelled before it reached admission (its tight
		// deadline expired in the submit path's first check) is counted by
		// the harness but never by the bucket, so admitted may fall short
		// of submitted-minus-rate-limited — but only by cancellations.
		upper := int64(b.Submitted - b.RateLimited)
		lower := upper - int64(b.Cancelled)
		if st.Admitted > upper || st.Admitted < lower {
			return fmt.Errorf("chaos: tenant %s registry admitted %d, harness bounds [%d, %d]",
				id, st.Admitted, lower, upper)
		}
	}
	return nil
}

// Run executes one chaos scenario to completion and returns the audited
// report (call Check for the invariant verdict). The cluster is built,
// driven and closed inside the call.
func Run(cfg Config) (*Report, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("chaos: nil trace")
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 0.02
	}
	disp := cfg.Dispatcher
	if disp == nil {
		disp = dispatch.Policy("RS")
	}
	maxNew := cfg.MaxNewTokens
	if maxNew < 1 {
		maxNew = 32
	}
	var reg *tenant.Registry
	if len(cfg.Tenants) > 0 {
		var err error
		if reg, err = tenant.NewRegistry(cfg.Tenants...); err != nil {
			return nil, err
		}
	}
	// The continuous capacity hint is the mean of the budgets the run will
	// submit: the trace's own when it carries them, else the draw's.
	meanOut := cfg.Trace.MeanOutTokens()
	if meanOut == 0 {
		meanOut = float64(maxNew+1) / 2
	}
	cl, err := cluster.New(cluster.Config{
		Profile:           cfg.Profile,
		InitialAllocation: cfg.Allocation,
		Dispatcher:        disp,
		TimeScale:         scale,
		Overhead:          -1,
		MaxBatch:          cfg.MaxBatch,
		BatchDelay:        cfg.BatchDelay,
		Continuous:        cfg.Generative,
		MeanOutTokens:     meanOut,
		Tenants:           reg,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rec := cl.Recorder()

	// The seed also picks the entry point: odd seeds submit through the
	// ring-fed ingress every server and benchmark workload uses, even
	// seeds directly. The per-request contract is the same either way.
	submit := cl.SubmitCtx
	if cfg.Seed%2 != 0 {
		ing := cluster.NewIngress(cl, cluster.IngressConfig{})
		defer ing.Close()
		submit = ing.SubmitCtx
	}

	// The control loop shares the run's recorder and cluster. Replace
	// errors are expected mid-schedule (the plan races failures); Step
	// already tolerates them and replans next period. Its Period is the
	// modeled period in wall time, the span each tick's arrivals cover.
	var ctrl *controller.Controller
	period := cfg.ControllerPeriod
	if cfg.Controller != nil {
		if period <= 0 {
			period = cfg.Trace.Duration / 4
		}
		solver, err := allocator.NewSolver(cfg.Profile)
		if err != nil {
			return nil, err
		}
		opts := *cfg.Controller
		opts.Period = time.Duration(float64(period) * scale)
		if ctrl, err = controller.New(cl, solver, opts); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{Recorder: rec, Samples: make([]Sample, len(cfg.Trace.Requests))}
	if reg != nil {
		rep.PerTenant = make(map[string]*TenantBooks, len(cfg.Tenants))
		for _, tc := range cfg.Tenants {
			rep.PerTenant[tc.ID] = &TenantBooks{}
		}
	}

	// Merge arrivals, fault events and controller ticks into one
	// modeled-time schedule.
	type step struct {
		at   time.Duration
		req  *trace.Request
		ev   *Event
		ctrl bool
	}
	steps := make([]step, 0, len(cfg.Trace.Requests)+len(cfg.Events))
	for i := range cfg.Trace.Requests {
		r := &cfg.Trace.Requests[i]
		steps = append(steps, step{at: r.At, req: r})
	}
	for i := range cfg.Events {
		ev := &cfg.Events[i]
		steps = append(steps, step{at: ev.At, ev: ev})
	}
	if ctrl != nil && period > 0 {
		for at := period; at <= cfg.Trace.Duration; at += period {
			steps = append(steps, step{at: at, ctrl: true})
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })

	// Cancellation deadlines and output budgets are drawn up front, in
	// schedule order, so the stimulus depends only on the seed.
	deadlines := make([]time.Duration, len(steps))
	budgets := make([]int, len(steps))
	tenants := make([]string, len(steps))
	for i, st := range steps {
		if st.req == nil {
			continue
		}
		if rng.Float64() < cfg.CancelFraction {
			// Tight enough to race queueing and the failure windows.
			deadlines[i] = time.Duration(1+rng.Intn(5)) * time.Millisecond
		}
		budgets[i] = st.req.OutTokens
		if cfg.Generative && budgets[i] < 1 {
			budgets[i] = 1 + rng.Intn(maxNew)
		}
		tenants[i] = st.req.Tenant
		if reg != nil && tenants[i] == "" {
			tenants[i] = cfg.Tenants[rng.Intn(len(cfg.Tenants))].ID
		}
	}

	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	classify := func(tn string, err error) {
		mu.Lock()
		defer mu.Unlock()
		books := &TenantBooks{}
		if rep.PerTenant != nil {
			if b, ok := rep.PerTenant[tn]; ok {
				books = b
			} else {
				rep.PerTenant[tn] = books
			}
		}
		switch {
		case err == nil:
			rep.Completed++
			books.Completed++
		case errors.Is(err, cluster.ErrDeadlineExceeded):
			rep.Cancelled++
			books.Cancelled++
		case errors.Is(err, cluster.ErrRateLimited):
			rep.RateLimited++
			books.RateLimited++
		case errors.Is(err, cluster.ErrUnserviceable):
			rep.Unserviceable++
			books.Unserviceable++
		case errors.Is(err, cluster.ErrCongested),
			errors.Is(err, cluster.ErrClusterClosed),
			errors.Is(err, dispatch.ErrNoInstances),
			errors.Is(err, dispatch.ErrTooLong):
			rep.OtherRejected++
			books.OtherRejected++
		default:
			rep.Unexpected = append(rep.Unexpected, err)
		}
	}

	// resolved counts requests whose outcome has been classified; the
	// event barrier below uses it to tell "not yet dispatched" from
	// "already finished".
	resolved := func() int {
		mu.Lock()
		defer mu.Unlock()
		return rep.Completed + rep.Cancelled + rep.Unserviceable + rep.OtherRejected +
			rep.RateLimited + len(rep.Unexpected)
	}

	start := time.Now()
	var firstSubmit time.Time
	for i, st := range steps {
		if wait := time.Until(start.Add(time.Duration(float64(st.at) * scale))); wait > 0 {
			time.Sleep(wait)
		}
		if st.ev != nil || st.ctrl {
			// Dispatch barrier: wait (bounded) until every earlier arrival
			// has been routed or resolved, so the queue state a fault (or a
			// replan) observes is a function of the schedule, not of how
			// the runtime happened to interleave the submitter goroutines.
			barrier := time.Now().Add(time.Second)
			for cl.Outstanding()+resolved() < rep.Submitted && time.Now().Before(barrier) {
				time.Sleep(20 * time.Microsecond)
			}
			if st.ctrl {
				// Replace errors are legal here — the plan races failures
				// and rejoins; the loop replans from whatever topology
				// exists next tick. Conservation is what Check audits.
				_ = ctrl.Step()
				rep.Allocations = append(rep.Allocations, cl.Allocation())
				continue
			}
			switch st.ev.Kind {
			case Fail:
				// "No instance to fail" is legal mid-schedule (a prior
				// permanent failure emptied the runtime); the event is a
				// no-op then, matching the simulator's behaviour.
				_, _ = cl.FailInstance(st.ev.Runtime, st.ev.Downtime)
			case Slow:
				_, _ = cl.SlowInstance(st.ev.Runtime, st.ev.Factor)
			}
			continue
		}
		sample := &rep.Samples[rep.Submitted]
		*sample = Sample{At: st.at, Tenant: tenants[i]}
		if rep.Submitted == 0 {
			firstSubmit = time.Now()
		}
		rep.Submitted++
		length := st.req.Length
		deadline := deadlines[i]
		budget := budgets[i]
		tn := tenants[i]
		if rep.PerTenant != nil {
			mu.Lock()
			b, ok := rep.PerTenant[tn]
			if !ok {
				b = &TenantBooks{}
				rep.PerTenant[tn] = b
			}
			b.Submitted++
			mu.Unlock()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(float64(deadline)*scale))
				defer cancel()
			}
			res, err := submit(ctx, cluster.Request{Length: length, MaxNewTokens: budget, Tenant: tn})
			if err == nil && budget > 0 && res.Span.OutTokens != budget {
				// Iteration-level conservation: a completion must carry its
				// full generation — a short count means a crash-displaced
				// partial leaked through as finished.
				err = fmt.Errorf("chaos: completed with %d of %d tokens", res.Span.OutTokens, budget)
			}
			sample.Span, sample.Err = res.Span, err
			classify(tn, err)
		}()
	}
	wg.Wait()
	if rep.Submitted > 0 {
		rep.Elapsed = time.Since(firstSubmit)
	}

	if reg != nil {
		rep.TenantStats = reg.Stats()
	}
	if ctrl != nil {
		st := ctrl.Status()
		rep.Replans = st.Replans
		rep.Replacements = st.Replacements
	}
	rep.RequeuesQueued = rec.RequeuesFor(obs.RequeueQueued)
	rep.RequeuesInflight = rec.RequeuesFor(obs.RequeueInflight)
	rep.FinalAllocation = cl.Allocation()
	rep.FinalHealth = cl.Snapshot().Health()
	return rep, nil
}
