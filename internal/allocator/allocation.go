// Package allocator implements Arlo's Runtime Scheduler (paper section
// 3.3): periodically solving the integer program of Eqs. 1-7 to allocate
// GPU instances across the model's runtimes, planning minimal instance
// replacements between consecutive allocations (section 4), and the
// target-tracking auto-scaler that grows and shrinks the cluster under
// load fluctuation.
//
// The allocation program minimizes the demand-weighted mean latency
//
//	min  sum_i L_i(B_i) * C_i                            (Eq. 1)
//	s.t. sum_i N_i = G                                   (Eq. 2)
//	     N_i >= floor(Q_i / M_i)                         (Eq. 3)
//	     R_i = max(R_{i-1} + Q_i - N_i*M_i, 0)           (Eq. 4)
//	     C_i = min(R_{i-1} + Q_i, N_i*M_i), C_I takes all (Eq. 5)
//	     B_i = C_i / N_i                                 (Eq. 6)
//	     N_I >= 1                                        (Eq. 7)
//
// where Q_i is the average demand per SLO window in runtime i's length
// bin, M_i its profiled capacity, and R_i the requests demoted to larger
// runtimes. The paper hands this to GUROBI; the cascade structure admits
// an exact dynamic program over (runtime index, GPUs used) with
// Pareto-pruned (carry-over, cost) states, which this package implements
// in pure Go. On the paper's Table 2 sizes (up to 1000 GPUs, 16 runtimes)
// it solves in well under a second.
package allocator

import (
	"fmt"
	"math"

	"arlo/internal/profiler"
)

// Allocation is the result of one Runtime Scheduler decision.
type Allocation struct {
	// N is the number of GPU instances assigned to each runtime, aligned
	// with the profile's runtimes.
	N []int
	// Cost is the objective value: demand-weighted mean latency summed
	// over all processed requests, in seconds (sum L_i(B_i)*C_i).
	Cost float64
	// Relaxed reports that the Eq. 3 lower bounds had to be dropped
	// because the cluster is too small to satisfy them (demand is then
	// absorbed through demotion and the last runtime).
	Relaxed bool
}

// Solver computes optimal allocations for one profiled model.
type Solver struct {
	Profile *profiler.Profile
}

// NewSolver returns a Solver over the profile.
func NewSolver(p *profiler.Profile) (*Solver, error) {
	if p == nil || len(p.Runtimes) == 0 {
		return nil, fmt.Errorf("allocator: profile with no runtimes")
	}
	return &Solver{Profile: p}, nil
}

// Allocate solves the allocation program for g GPUs and per-runtime demand
// q (requests per SLO window, len equal to the number of runtimes). When
// the Eq. 3 lower bounds are unsatisfiable with g GPUs the solver relaxes
// them and reports Relaxed.
func (s *Solver) Allocate(g int, q []float64) (*Allocation, error) {
	rts := s.Profile.Runtimes
	if len(q) != len(rts) {
		return nil, fmt.Errorf("allocator: demand has %d bins for %d runtimes", len(q), len(rts))
	}
	if g < 1 {
		return nil, fmt.Errorf("allocator: need at least one GPU, got %d", g)
	}
	for i, v := range q {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("allocator: invalid demand %v for runtime %d", v, i)
		}
	}
	minN := make([]int, len(rts))
	total := 0
	for i, rt := range rts {
		minN[i] = int(q[i] / float64(rt.Capacity)) // floor (Eq. 3)
		total += minN[i]
	}
	if minN[len(rts)-1] < 1 {
		total += 1 - minN[len(rts)-1]
		minN[len(rts)-1] = 1 // Eq. 7
	}
	relaxed := false
	if total > g {
		// Not enough GPUs for the SLO lower bounds: drop them, keep Eq. 7.
		relaxed = true
		for i := range minN {
			minN[i] = 0
		}
		minN[len(rts)-1] = 1
	}
	n, cost := s.solveDP(g, q, minN)
	if n == nil {
		return nil, fmt.Errorf("allocator: no feasible allocation for %d GPUs across %d runtimes", g, len(rts))
	}
	return &Allocation{N: n, Cost: cost, Relaxed: relaxed}, nil
}

// Func is an allocation policy: the per-runtime instance counts for g GPUs
// under demand q (requests per SLO window per runtime bin). Solver.Allocate
// is Arlo's; a baseline wraps its heuristic in one.
type Func func(g int, q []float64) (*Allocation, error)

// Replan is one period of the Runtime Scheduler (sections 3.3 and 4): it
// solves for the GPUs the current deployment holds and plans the minimal
// replacements toward the result. Two dampers are the values its callers
// set differently: the simulator applies every plan whole (hold 0, budget
// 0, as the paper's loop does), and the live controller sets both from its
// Options. A positive hold keeps the current deployment unless the target
// beats its objective by more than that fraction (held reports this, with
// the whole plan), but never when the current deployment breaks Eq. 7. A
// positive budget keeps only the plan's first budget replacements. A solve
// error returns a nil target; a plan error still returns the target.
func Replan(solve Func, p *profiler.Profile, current []int, q []float64, hold float64, budget int) (target *Allocation, plan []Replacement, held bool, err error) {
	g := 0
	for _, n := range current {
		g += n
	}
	if target, err = solve(g, q); err != nil {
		return nil, nil, false, err
	}
	if plan, err = PlanReplacements(current, target.N); err != nil {
		return target, nil, false, err
	}
	if hold > 0 && len(plan) > 0 {
		if cur, cerr := EvaluateObjective(p, q, current); cerr == nil && cur <= target.Cost*(1+hold) {
			return target, plan, true, nil
		}
	}
	if budget > 0 && len(plan) > budget {
		plan = plan[:budget]
	}
	return target, plan, false, nil
}

// dpState is one Pareto-frontier entry: after allocating some prefix of
// runtimes with a given GPU total, carry requests R remain demoted and
// cost has accrued. choice/parent reconstruct the allocation.
type dpState struct {
	carry  float64
	cost   float64
	choice int // N for the runtime that produced this state
	parent int // index of the predecessor state in the previous stage slice
	gPrev  int // GPUs used before this stage's choice
}

// solveDP runs the exact DP. It returns nil when infeasible.
func (s *Solver) solveDP(g int, q []float64, minN []int) ([]int, float64) {
	rts := s.Profile.Runtimes
	numRt := len(rts)
	// minTail[i] = sum of minN over runtimes i..end (GPUs that must be
	// reserved for the remaining stages).
	minTail := make([]int, numRt+1)
	for i := numRt - 1; i >= 0; i-- {
		minTail[i] = minTail[i+1] + minN[i]
	}
	if minTail[0] > g {
		return nil, 0
	}

	// states[gUsed] = Pareto set of (carry, cost) after the current stage.
	type stage map[int][]dpState
	cur := stage{0: {dpState{carry: 0, cost: 0, choice: -1, parent: -1}}}
	// history[i] holds stage i's state slices for reconstruction.
	history := make([]map[int][]dpState, numRt)

	for i := 0; i < numRt; i++ {
		rt := rts[i]
		next := stage{}
		last := i == numRt-1
		for gUsed, sts := range cur {
			avail := g - gUsed - minTail[i+1]
			if avail < minN[i] {
				continue
			}
			for si, st := range sts {
				inflow := st.carry + q[i]
				// Useful N caps at ceil(inflow): beyond it every request
				// runs immediately (B <= 1) and extra GPUs are better
				// spent later; the last runtime absorbs all leftovers.
				hi := avail
				if !last {
					if useful := int(math.Ceil(inflow)); useful < hi {
						hi = useful
					}
					if hi < minN[i] {
						hi = minN[i]
					}
				} else {
					hi = avail // Eq. 2: all remaining GPUs go to the last runtime
				}
				lo := minN[i]
				if last {
					lo = avail
				}
				for n := lo; n <= hi; n++ {
					carry, term := stageCost(rt, inflow, n, last)
					ns := dpState{
						carry:  carry,
						cost:   st.cost + term,
						choice: n,
						parent: si,
						gPrev:  gUsed,
					}
					key := gUsed + n
					next[key] = paretoInsert(next[key], ns)
				}
			}
		}
		history[i] = next
		cur = next
	}

	// The answer is the min-cost state with exactly g GPUs used.
	finals, ok := cur[g]
	if !ok || len(finals) == 0 {
		return nil, 0
	}
	bestIdx := 0
	for i := 1; i < len(finals); i++ {
		if finals[i].cost < finals[bestIdx].cost {
			bestIdx = i
		}
	}
	// Reconstruct choices back through the stages.
	n := make([]int, numRt)
	st := finals[bestIdx]
	for i := numRt - 1; i >= 0; i-- {
		n[i] = st.choice
		if i > 0 {
			st = history[i-1][st.gPrev][st.parent]
		}
	}
	return n, finals[bestIdx].cost
}

// stageCost evaluates Eqs. 4-6 for one runtime: given inflow = R_{i-1} +
// Q_i and N instances, it returns the demoted carry R_i and the objective
// term L_i(B_i) * C_i in seconds. With N = 0 nothing is processed and
// everything is demoted. The last runtime processes all inflow (Eq. 5).
func stageCost(rt profiler.Runtime, inflow float64, n int, last bool) (carry, term float64) {
	if n <= 0 {
		if last {
			// Unreachable by construction (Eq. 7) but defensive.
			return 0, math.Inf(1)
		}
		return inflow, 0
	}
	capacity := float64(n) * float64(rt.Capacity)
	var c float64
	if last {
		c = inflow
		carry = 0
	} else {
		c = math.Min(inflow, capacity)
		carry = inflow - c
		if carry < 1e-12 {
			carry = 0
		}
	}
	if c <= 0 {
		return carry, 0
	}
	b := c / float64(n)
	term = rt.MeanLatency(b).Seconds() * c
	return carry, term
}

// paretoInsert adds a state to a Pareto frontier ordered by carry: a state
// is kept only if no existing state has both carry <= and cost <= its own
// (with strict improvement in one).
func paretoInsert(frontier []dpState, s dpState) []dpState {
	const tol = 1e-12
	// If any existing state dominates s, the frontier is unchanged.
	for _, f := range frontier {
		if f.carry <= s.carry+tol && f.cost <= s.cost+tol {
			return frontier
		}
	}
	// Otherwise drop states s dominates and append s. Filtering in place
	// is safe: the slice is owned exclusively by this stage's map entry.
	kept := frontier[:0]
	for _, f := range frontier {
		if s.carry <= f.carry+tol && s.cost <= f.cost+tol {
			continue
		}
		kept = append(kept, f)
	}
	return append(kept, s)
}

// EvaluateObjective computes the Eq. 1 objective for an explicit
// allocation n against demand q: sum over runtimes of L_i(B_i)*C_i, in
// seconds. It mirrors stageCost and is used to validate the DP and to
// score the Table 3 baseline allocations.
func EvaluateObjective(p *profiler.Profile, q []float64, n []int) (float64, error) {
	if len(q) != len(p.Runtimes) || len(n) != len(p.Runtimes) {
		return 0, fmt.Errorf("allocator: dimension mismatch (%d runtimes, %d demands, %d allocations)", len(p.Runtimes), len(q), len(n))
	}
	if n[len(n)-1] < 1 {
		return 0, fmt.Errorf("allocator: last runtime must have at least one instance (Eq. 7)")
	}
	carry := 0.0
	total := 0.0
	for i, rt := range p.Runtimes {
		last := i == len(n)-1
		c, term := stageCost(rt, carry+q[i], n[i], last)
		carry = c
		total += term
	}
	return total, nil
}
