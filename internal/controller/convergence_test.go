// The deterministic convergence suite — the headline test of the control
// loop. Everything here runs on a fake clock: each Step's demand is the
// seeded arrivals booked before it, Autoscale takes explicit timestamps,
// and the allocation solver plus PlanReplacements are deterministic, so
// every assertion is exact — no wall-clock sleeps, no tolerance bands —
// and the whole suite is run under -race in CI (live cluster workers keep
// running underneath while the loop swaps their instances).
package controller

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arlo/internal/allocator"
)

// seededLengths draws n request lengths in [lo, hi] from a seeded PRNG.
func seededLengths(seed int64, n, lo, hi int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = lo + rng.Intn(hi-lo+1)
	}
	return out
}

// TestConvergenceOnDriftingTrace is the acceptance-criterion test: the
// request-length distribution drifts from short-heavy to long-heavy
// mid-run; the controller re-solves and applies replacements until the
// live topology exactly matches the solver's target for the post-drift
// distribution, in exactly |plan| = L1/2 replacements.
func TestConvergenceOnDriftingTrace(t *testing.T) {
	p := testProfile(t) // runtimes 64/128/256/512
	solver, err := allocator.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}

	const g = 8
	phase1 := seededLengths(1, 400, 1, 120)   // short-heavy: bins 0-1
	phase2 := seededLengths(2, 400, 256, 500) // long-heavy: bins 2-3
	q1 := demandOf(p, phase1)
	q2 := demandOf(p, phase2)
	want1, err := solver.Allocate(g, q1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := solver.Allocate(g, q2)
	if err != nil {
		t.Fatal(err)
	}
	if equalInts(want1.N, want2.N) {
		t.Fatalf("degenerate drift: both phases solve to %v", want1.N)
	}

	// The cluster starts converged for phase 1.
	cl := testCluster(t, p, want1.N)
	rec := cl.Recorder()
	c, err := New(cl, solver, Options{Hysteresis: -1, MaxReplacements: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: one period's arrivals. The loop must recognize the topology
	// is already optimal and plan nothing.
	arrive(rec, phase1)
	res := c.Step()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Replanned || !equalInts(res.Target, want1.N) {
		t.Fatalf("phase-1 step: %+v, want target %v", res, want1.N)
	}
	// The demand it solved for is the period's count per SLO window scaled
	// by the cluster's own TimeScale — nobody told the controller.
	for i, q := range c.Status().DemandPerSLO {
		if math.Abs(q-q1[i]) > 1e-9 {
			t.Fatalf("solved demand %v, want %v", c.Status().DemandPerSLO, q1)
		}
	}
	if len(res.Plan) != 0 || res.Applied != 0 {
		t.Fatalf("phase-1 step planned %v on a converged topology", res.Plan)
	}

	// Phase 2: the next period's arrivals have drifted long.
	arrive(rec, phase2)
	wantMoves := l1(want1.N, want2.N) / 2
	res = c.Step()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !equalInts(res.Target, want2.N) {
		t.Fatalf("post-drift target = %v, want %v (demand %v)", res.Target, want2.N, q2)
	}
	if res.Applied != wantMoves || len(res.Plan) != wantMoves {
		t.Fatalf("applied %d replacements (plan %d), want exactly L1/2 = %d", res.Applied, len(res.Plan), wantMoves)
	}
	if got := cl.Allocation(); !equalInts(got, want2.N) {
		t.Fatalf("final topology %v, want MILP target %v", got, want2.N)
	}

	// A further period with the same arrivals is a fixed point.
	arrive(rec, phase2)
	res = c.Step()
	if len(res.Plan) != 0 || res.Applied != 0 {
		t.Fatalf("converged topology replanned: %+v", res)
	}
	if st := c.Status(); st.Replacements != int64(wantMoves) || st.Replans != 3 {
		t.Fatalf("status after convergence: %+v", st)
	}
}

// TestBudgetedConvergenceIsMonotone pins the replacement budget: with
// MaxReplacements=1 a large drift converges one swap per period, the L1
// distance to target shrinking by exactly 2 each step, reaching the
// target in exactly L1/2 periods.
func TestBudgetedConvergenceIsMonotone(t *testing.T) {
	p := testProfile(t)
	solver, err := allocator.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}

	const g = 8
	phase2 := seededLengths(3, 400, 256, 500)
	q2 := demandOf(p, phase2)
	want, err := solver.Allocate(g, q2)
	if err != nil {
		t.Fatal(err)
	}
	start := []int{5, 1, 1, 1}
	if sumInts(start) != g {
		t.Fatal("bad start vector")
	}
	dist := l1(start, want.N)
	if dist == 0 {
		t.Fatalf("degenerate: start %v already equals target", start)
	}

	cl := testCluster(t, p, start)
	rec := cl.Recorder()
	c, err := New(cl, solver, Options{Hysteresis: -1, MaxReplacements: 1})
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= dist/2; step++ {
		arrive(rec, phase2)
		res := c.Step()
		if res.Err != nil {
			t.Fatalf("step %d: %v", step, res.Err)
		}
		if res.Applied != 1 {
			t.Fatalf("step %d applied %d, want exactly the budget (1)", step, res.Applied)
		}
		if got := l1(cl.Allocation(), want.N); got != dist-2*step {
			t.Fatalf("step %d: L1 distance %d, want %d", step, got, dist-2*step)
		}
	}
	if got := cl.Allocation(); !equalInts(got, want.N) {
		t.Fatalf("after %d budgeted steps topology is %v, want %v", dist/2, got, want.N)
	}
	arrive(rec, phase2)
	if res := c.Step(); res.Applied != 0 {
		t.Fatalf("converged topology kept churning: %+v", res)
	}
}

// TestConvergenceUnderLiveLoad drives real traffic through the cluster
// while the controller swaps instances underneath it: every synchronous
// submission must resolve (complete or return a typed error), work must
// keep completing mid-churn, and the topology must still land exactly on
// the solver target. This is the -race half of the convergence story.
func TestConvergenceUnderLiveLoad(t *testing.T) {
	p := testProfile(t, 128, 512)
	solver, err := allocator.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}

	const g = 6
	longLens := seededLengths(4, 300, 300, 500)
	want, err := solver.Allocate(g, demandOf(p, longLens))
	if err != nil {
		t.Fatal(err)
	}
	start := []int{g - 1, 1}
	if equalInts(start, want.N) {
		t.Fatalf("degenerate: start %v already equals target %v", start, want.N)
	}

	cl := testCluster(t, p, start)
	c, err := New(cl, solver, Options{Hysteresis: -1, MaxReplacements: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Live workers hammer the long runtime while the loop replaces
	// instances under them.
	var completed, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Submit(300 + rng.Intn(200)); err != nil {
					failed.Add(1)
				} else {
					completed.Add(1)
				}
			}
		}(int64(100 + w))
	}

	// The live submissions book arrivals too, but all in the long bin the
	// fed demand fills: the short runtime sees no demand, so the target
	// does not depend on how many arrive between Steps.
	deadline := time.Now().Add(30 * time.Second)
	// Wait for traffic to flow before the first swap so replacements
	// genuinely race in-flight work, then keep stepping until the
	// topology converges AND more work has completed through the churn.
	for completed.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	preChurn := completed.Load()
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: topology %v, want %v, %d completed", cl.Allocation(), want.N, completed.Load())
		}
		if equalInts(cl.Allocation(), want.N) && completed.Load() >= preChurn+50 {
			break
		}
		// A Step on a converged topology is a no-op; one that races a
		// congested drain returns a typed error and retries next lap.
		arrive(cl.Recorder(), longLens)
		c.Step()
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()

	if got := cl.Allocation(); !equalInts(got, want.N) {
		t.Fatalf("final topology %v, want %v", got, want.N)
	}
	if completed.Load() == 0 {
		t.Fatal("no request completed while the loop was replacing instances")
	}
	t.Logf("live load through churn: %d completed, %d typed failures, %d replacements",
		completed.Load(), failed.Load(), c.Status().Replacements)
}

// TestAutoscaleOutUnderPressure: p98 at the SLO trips the target tracker
// immediately, the new worker lands on the max-length runtime, and the
// cooldown rate-limits the next one — all on the fake clock.
func TestAutoscaleOutUnderPressure(t *testing.T) {
	p := testProfile(t)
	solver, _ := allocator.NewSolver(p)
	cl := testCluster(t, p, []int{1, 1, 1, 1})
	rec := cl.Recorder()
	scaler, err := allocator.NewAutoScaler(testSLO)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cl, solver, Options{Scaler: scaler})
	if err != nil {
		t.Fatal(err)
	}

	// No samples: no signal, no action.
	if act := c.Autoscale(vt(60 * time.Second)); act != allocator.ScaleNone {
		t.Fatalf("empty-window autoscale acted: %v", act)
	}

	// Saturated latency (p98 >= 95% of SLO) at every tick.
	slow := func(at time.Time) { feed(rec, []int{100, 200, 300, 400}, testSLO, at) }
	base := vt(60 * time.Second)
	slow(base)
	if act := c.Autoscale(base); act != allocator.ScaleOut {
		t.Fatalf("pressure tick 1: %v, want scale-out", act)
	}
	if got := cl.Instances(); got != 5 {
		t.Fatalf("instances = %d, want 5", got)
	}
	if alloc := cl.Allocation(); alloc[len(alloc)-1] != 2 {
		t.Fatalf("scale-out landed on %v, want the max-length runtime", alloc)
	}

	// Inside the 5s cooldown: still under pressure, but no second worker.
	slow(base.Add(time.Second))
	if act := c.Autoscale(base.Add(time.Second)); act != allocator.ScaleNone {
		t.Fatalf("tick inside cooldown: %v, want none", act)
	}
	// Past the cooldown: out again.
	slow(base.Add(6 * time.Second))
	if act := c.Autoscale(base.Add(6 * time.Second)); act != allocator.ScaleOut {
		t.Fatalf("tick past cooldown: %v, want scale-out", act)
	}
	if got := cl.Instances(); got != 6 {
		t.Fatalf("instances = %d, want 6", got)
	}
	if st := c.Status(); st.ScaleOuts != 2 {
		t.Fatalf("ScaleOuts = %d, want 2", st.ScaleOuts)
	}
}

// TestAutoscaleInAfterQuietPeriod: a full 60s evaluation period below 50%
// of the SLO releases exactly one worker — not one per tick.
func TestAutoscaleInAfterQuietPeriod(t *testing.T) {
	p := testProfile(t)
	solver, _ := allocator.NewSolver(p)
	cl := testCluster(t, p, []int{1, 1, 1, 1})
	rec := cl.Recorder()
	scaler, err := allocator.NewAutoScaler(testSLO)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cl, solver, Options{Scaler: scaler})
	if err != nil {
		t.Fatal(err)
	}

	base := vt(60 * time.Second)
	quiet := func(at time.Time) { feed(rec, []int{100, 300}, time.Millisecond, at) }
	// Ticks every 10s for a minute: comfortable, not yet a full period.
	for off := time.Duration(0); off < 60*time.Second; off += 10 * time.Second {
		quiet(base.Add(off))
		if act := c.Autoscale(base.Add(off)); act != allocator.ScaleNone {
			t.Fatalf("tick %v inside evaluation period acted: %v", off, act)
		}
	}
	// The period completes: release one.
	at := base.Add(61 * time.Second)
	quiet(at)
	if act := c.Autoscale(at); act != allocator.ScaleIn {
		t.Fatalf("tick past evaluation period: %v, want scale-in", act)
	}
	if got := cl.Instances(); got != 3 {
		t.Fatalf("instances = %d, want 3", got)
	}
	// The window restarts: the immediately following tick must not
	// release another.
	at = at.Add(10 * time.Second)
	quiet(at)
	if act := c.Autoscale(at); act != allocator.ScaleNone {
		t.Fatalf("tick right after scale-in acted: %v", act)
	}
	if st := c.Status(); st.ScaleIns != 1 || st.GPUs != 3 {
		t.Fatalf("status after scale-in: %+v", st)
	}
}

// TestAutoscaleDryRun records the decision without touching the pool.
func TestAutoscaleDryRun(t *testing.T) {
	p := testProfile(t)
	solver, _ := allocator.NewSolver(p)
	cl := testCluster(t, p, []int{1, 1, 1, 1})
	rec := cl.Recorder()
	scaler, err := allocator.NewAutoScaler(testSLO)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cl, solver, Options{Scaler: scaler, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	base := vt(60 * time.Second)
	feed(rec, []int{100, 200}, testSLO, base)
	if act := c.Autoscale(base); act != allocator.ScaleOut {
		t.Fatalf("dry-run pressure tick: %v, want scale-out decision", act)
	}
	if got := cl.Instances(); got != 4 {
		t.Fatalf("dry run grew the pool to %d", got)
	}
	if st := c.Status(); st.ScaleOuts != 1 {
		t.Fatalf("dry-run decision not recorded: %+v", st)
	}
}
