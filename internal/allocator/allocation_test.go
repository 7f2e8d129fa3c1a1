package allocator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"arlo/internal/model"
	"arlo/internal/profiler"
)

func bertBaseProfile(t testing.TB) *profiler.Profile {
	t.Helper()
	lm := model.BertBase()
	p, err := profiler.StaticProfile(lm, lm.Arch().RuntimeLengths(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newSolver(t testing.TB, p *profiler.Profile) *Solver {
	t.Helper()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSolverValidation(t *testing.T) {
	if _, err := NewSolver(nil); err == nil {
		t.Error("nil profile should fail")
	}
	if _, err := NewSolver(&profiler.Profile{}); err == nil {
		t.Error("empty profile should fail")
	}
}

func TestAllocateValidation(t *testing.T) {
	s := newSolver(t, bertBaseProfile(t))
	if _, err := s.Allocate(10, []float64{1, 2}); err == nil {
		t.Error("demand dimension mismatch should fail")
	}
	if _, err := s.Allocate(0, make([]float64, 8)); err == nil {
		t.Error("zero GPUs should fail")
	}
	bad := make([]float64, 8)
	bad[3] = math.NaN()
	if _, err := s.Allocate(10, bad); err == nil {
		t.Error("NaN demand should fail")
	}
	bad[3] = -1
	if _, err := s.Allocate(10, bad); err == nil {
		t.Error("negative demand should fail")
	}
	bad[3] = math.Inf(1)
	if _, err := s.Allocate(10, bad); err == nil {
		t.Error("infinite demand should fail")
	}
}

func TestAllocateBasicInvariants(t *testing.T) {
	p := bertBaseProfile(t)
	s := newSolver(t, p)
	q := []float64{400, 200, 100, 60, 30, 15, 8, 4}
	g := 12
	a, err := s.Allocate(g, q)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, n := range a.N {
		if n < 0 {
			t.Errorf("negative allocation at runtime %d", i)
		}
		sum += n
	}
	if sum != g {
		t.Errorf("allocations sum to %d, want %d (Eq. 2)", sum, g)
	}
	if a.N[len(a.N)-1] < 1 {
		t.Error("largest runtime must get at least one instance (Eq. 7)")
	}
	if a.Relaxed {
		t.Error("12 GPUs should satisfy the Eq. 3 bounds for this demand")
	}
	// Eq. 3 lower bounds.
	for i, rt := range p.Runtimes {
		if minN := int(q[i] / float64(rt.Capacity)); a.N[i] < minN {
			t.Errorf("runtime %d: N=%d below Eq. 3 bound %d", i, a.N[i], minN)
		}
	}
	// Objective agrees with the standalone evaluator.
	obj, err := EvaluateObjective(p, q, a.N)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-a.Cost) > 1e-9 {
		t.Errorf("solver cost %v != evaluated %v", a.Cost, obj)
	}
}

func sumFloats(q []float64) float64 {
	s := 0.0
	for _, v := range q {
		s += v
	}
	return s
}

// TestAllocateOptimalVsBruteForce is the DP's oracle. On small instances it
// enumerates every composition of g GPUs that meets the Eq. 3 bounds the
// solver kept (only Eq. 7 once it relaxed them) and checks that the DP's
// reported cost is both what EvaluateObjective prices its allocation at
// and the enumerated optimum. EvaluateObjective shares stageCost with the
// DP, so every composition that demotes nothing (Q_i <= N_i*M_i for all i)
// is also priced by Eq. 1 written out here, where C_i = Q_i and
// B_i = Q_i/N_i: the two prices must agree, and the DP must never cost
// more than the best such composition. The 3-runtime draws alternate light
// demand (<= 0.6 M_i per bin), where the optimum seldom demotes, with heavy
// demand (<= 1.4 M_i).
func TestAllocateOptimalVsBruteForce(t *testing.T) {
	for _, tc := range []struct {
		lengths    []int
		seed       int64
		trials     int
		gMin, gMax int
		loads      []float64 // per-bin demand bound in multiples of M_i, cycled over trials
	}{
		{[]int{128, 256, 384, 512}, 31, 50, 3, 10, []float64{2.5}},
		{[]int{128, 256, 512}, 8, 200, 3, 12, []float64{0.6, 1.4}},
	} {
		p, err := profiler.StaticProfile(model.BertBase(), tc.lengths, 150*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		s := newSolver(t, p)
		rng := rand.New(rand.NewSource(tc.seed))
		demotionFree := 0
		for trial := 0; trial < tc.trials; trial++ {
			g := tc.gMin + rng.Intn(tc.gMax-tc.gMin+1)
			load := tc.loads[trial%len(tc.loads)]
			q := make([]float64, len(p.Runtimes))
			for i, rt := range p.Runtimes {
				q[i] = math.Floor(rng.Float64()*float64(rt.Capacity)*load*10) / 10
			}
			where := fmt.Sprintf("%v trial %d (g=%d q=%v)", tc.lengths, trial, g, q)
			a, err := s.Allocate(g, q)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if obj, err := EvaluateObjective(p, q, a.N); err != nil || !sameCost(a.Cost, obj) {
				t.Errorf("%s: DP reports %.12f for N=%v, EvaluateObjective %.12f (%v)", where, a.Cost, a.N, obj, err)
			}
			last := len(q) - 1
			minN := make([]int, len(q))
			need := 0
			for i, rt := range p.Runtimes {
				minN[i] = int(q[i] / float64(rt.Capacity))
				need += minN[i]
			}
			need += max(0, 1-minN[last])
			minN[last] = max(1, minN[last])
			if relaxed := need > g; relaxed != a.Relaxed {
				t.Errorf("%s: Relaxed = %v, the Eq. 3 bounds need %d GPUs", where, a.Relaxed, need)
			}
			if a.Relaxed {
				clear(minN)
				minN[last] = 1
			}
			best, bestFree := math.Inf(1), math.Inf(1)
			compositions(g, minN, func(n []int) {
				obj, err := EvaluateObjective(p, q, n)
				if err != nil {
					t.Fatal(err)
				}
				best = min(best, obj)
				if free, ok := eq1WithoutDemotion(p, q, n); ok {
					if !sameCost(free, obj) {
						t.Errorf("%s: N=%v demotes nothing; Eq. 1 prices it %.12f, EvaluateObjective %.12f", where, n, free, obj)
					}
					bestFree = min(bestFree, free)
				}
			})
			if !sameCost(a.Cost, best) {
				t.Errorf("%s: DP cost %.12f (N=%v), brute-force optimum %.12f", where, a.Cost, a.N, best)
			}
			if a.Cost > bestFree && !sameCost(a.Cost, bestFree) {
				t.Errorf("%s: DP cost %.12f exceeds the best demotion-free composition's %.12f", where, a.Cost, bestFree)
			}
			if sameCost(a.Cost, bestFree) {
				demotionFree++
			}
		}
		t.Logf("%v: the optimum demotes nothing in %d of %d trials", tc.lengths, demotionFree, tc.trials)
	}
}

// compositions calls visit with every allocation n >= minN, elementwise,
// whose entries sum to g. visit must not keep n.
func compositions(g int, minN []int, visit func(n []int)) {
	n := make([]int, len(minN))
	var fill func(i, left int)
	fill = func(i, left int) {
		if i == len(n)-1 {
			if left >= minN[i] {
				n[i] = left
				visit(n)
			}
			return
		}
		for n[i] = minN[i]; n[i] <= left; n[i]++ {
			fill(i+1, left-n[i])
		}
	}
	fill(0, g)
}

// eq1WithoutDemotion prices allocation n by Eq. 1 with nothing demoted:
// each runtime processes its own bin, C_i = Q_i at B_i = Q_i/N_i. ok is
// false when some bin exceeds its instances' capacity N_i*M_i.
func eq1WithoutDemotion(p *profiler.Profile, q []float64, n []int) (cost float64, ok bool) {
	for i, rt := range p.Runtimes {
		if q[i] > float64(n[i]*rt.Capacity) {
			return 0, false
		}
		if q[i] > 0 {
			cost += rt.MeanLatency(q[i]/float64(n[i])).Seconds() * q[i]
		}
	}
	return cost, true
}

// sameCost reports whether two objective values agree to 1e-9, relative.
func sameCost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

func TestAllocateFavorsLoadedBins(t *testing.T) {
	// All demand in the shortest bin: almost all GPUs should serve the
	// shortest runtime (modulo Eq. 7).
	p := bertBaseProfile(t)
	s := newSolver(t, p)
	q := make([]float64, 8)
	q[0] = 1000
	a, err := s.Allocate(10, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.N[0] < 8 {
		t.Errorf("expected most GPUs on runtime 0, got %v", a.N)
	}
	if a.N[7] < 1 {
		t.Errorf("Eq. 7 violated: %v", a.N)
	}
}

func TestAllocateRelaxesWhenClusterTooSmall(t *testing.T) {
	p := bertBaseProfile(t)
	s := newSolver(t, p)
	// Demand far above what 2 GPUs can host under Eq. 3.
	q := []float64{5000, 4000, 3000, 2000, 1500, 1000, 800, 500}
	a, err := s.Allocate(2, q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Relaxed {
		t.Error("expected relaxed allocation")
	}
	if a.N[len(a.N)-1] < 1 {
		t.Error("Eq. 7 must survive relaxation")
	}
	if sumInts(a.N) != 2 {
		t.Errorf("allocation must still use exactly 2 GPUs, got %v", a.N)
	}
}

func sumInts(n []int) int {
	s := 0
	for _, v := range n {
		s += v
	}
	return s
}

func TestAllocateZeroDemandParksOnLargest(t *testing.T) {
	p := bertBaseProfile(t)
	s := newSolver(t, p)
	a, err := s.Allocate(5, make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != 0 {
		t.Errorf("zero demand should cost 0, got %v", a.Cost)
	}
	if sumInts(a.N) != 5 {
		t.Errorf("must still place all GPUs: %v", a.N)
	}
}

func TestEvaluateObjectiveValidation(t *testing.T) {
	p := bertBaseProfile(t)
	if _, err := EvaluateObjective(p, []float64{1}, []int{1}); err == nil {
		t.Error("dimension mismatch should fail")
	}
	n := make([]int, 8)
	if _, err := EvaluateObjective(p, make([]float64, 8), n); err == nil {
		t.Error("Eq. 7 violation should fail")
	}
}

func TestEvaluateObjectiveDemotionCascade(t *testing.T) {
	// Demand overflowing runtime 0's capacity must be demoted and priced
	// at runtime 1's latency.
	lm := model.BertBase()
	p, err := profiler.StaticProfile(lm, []int{64, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cap0 := float64(p.Runtimes[0].Capacity)
	q := []float64{cap0 * 1.5, 0} // one instance of runtime 0 oversubscribed by 50%
	obj, err := EvaluateObjective(p, q, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Runtime 0 processes cap0 requests (saturated); 0.5*cap0 demote to
	// runtime 1 and are priced at its latency curve.
	demoted := 0.5 * cap0
	want := p.Runtimes[0].MeanLatency(cap0).Seconds()*cap0 +
		p.Runtimes[1].MeanLatency(demoted).Seconds()*demoted
	if math.Abs(obj-want)/want > 1e-9 {
		t.Errorf("objective = %v, want %v", obj, want)
	}
}

func TestAllocateDeterministic(t *testing.T) {
	p := bertBaseProfile(t)
	s := newSolver(t, p)
	q := []float64{100, 80, 60, 40, 20, 10, 5, 2}
	a1, err := s.Allocate(16, q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Allocate(16, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.N {
		if a1.N[i] != a2.N[i] {
			t.Fatalf("non-deterministic allocation: %v vs %v", a1.N, a2.N)
		}
	}
}

func TestAllocateLargeScaleFinishesQuickly(t *testing.T) {
	// Table 2's largest configuration: 1000 GPUs, 16 runtimes. The paper
	// reports 2.6 s with GUROBI; our DP must stay in the same ballpark.
	lm := model.BertLarge()
	p, err := profiler.StaticProfile(lm, lm.Arch().RuntimeLengthsN(16), 450*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	s := newSolver(t, p)
	q := make([]float64, 16)
	for i := range q {
		// Twitter-like: heavy short-bin demand decaying toward long bins.
		q[i] = 3000 * math.Exp(-0.45*float64(i))
	}
	start := time.Now()
	a, err := s.Allocate(1000, q)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if sumInts(a.N) != 1000 {
		t.Errorf("allocation sums to %d, want 1000", sumInts(a.N))
	}
	if elapsed > 10*time.Second {
		t.Errorf("1000-GPU solve took %v, want well under 10s", elapsed)
	}
	t.Logf("1000 GPUs / 16 runtimes solved in %v, N=%v", elapsed, a.N)
}
