package allocator

import "fmt"

// EvenAllocation splits g GPUs evenly across numRuntimes, giving leftover
// GPUs to the largest runtimes so Eq. 7 always holds — the first offline
// baseline of Table 3.
func EvenAllocation(g, numRuntimes int) ([]int, error) {
	if numRuntimes <= 0 {
		return nil, fmt.Errorf("allocator: need at least one runtime")
	}
	if g < numRuntimes {
		return nil, fmt.Errorf("allocator: even allocation needs at least %d GPUs, got %d", numRuntimes, g)
	}
	n := make([]int, numRuntimes)
	base := g / numRuntimes
	rem := g % numRuntimes
	for i := range n {
		n[i] = base
		if i >= numRuntimes-rem {
			n[i]++
		}
	}
	return n, nil
}

// ProportionalAllocation assigns GPUs proportionally to each runtime's
// share of the demand-weighted work (demand * per-request latency in
// capacity units), the "global trace length distribution" offline baseline
// of Table 3. It guarantees at least one instance on the largest runtime.
func ProportionalAllocation(g int, q []float64, capacities []int) ([]int, error) {
	if len(q) == 0 || len(q) != len(capacities) {
		return nil, fmt.Errorf("allocator: demand/capacity dimension mismatch")
	}
	if g < 1 {
		return nil, fmt.Errorf("allocator: need at least one GPU")
	}
	// Work share per runtime: instances needed to absorb its own demand.
	shares := make([]float64, len(q))
	total := 0.0
	for i := range q {
		if capacities[i] <= 0 {
			return nil, fmt.Errorf("allocator: runtime %d has non-positive capacity", i)
		}
		shares[i] = q[i] / float64(capacities[i])
		total += shares[i]
	}
	n := make([]int, len(q))
	if total <= 0 {
		// No demand: park everything on the largest runtime.
		n[len(n)-1] = g
		return n, nil
	}
	assigned := 0
	for i := range n {
		n[i] = int(float64(g) * shares[i] / total)
		assigned += n[i]
	}
	// Distribute rounding leftovers to the runtimes with the largest
	// fractional remainders, then force Eq. 7.
	for assigned < g {
		bestI, bestFrac := 0, -1.0
		for i := range n {
			frac := float64(g)*shares[i]/total - float64(n[i])
			if frac > bestFrac {
				bestFrac, bestI = frac, i
			}
		}
		n[bestI]++
		assigned++
	}
	if n[len(n)-1] == 0 {
		// Steal one instance from the most-provisioned runtime.
		bestI := 0
		for i, v := range n {
			if v > n[bestI] {
				bestI = i
			}
		}
		n[bestI]--
		n[len(n)-1] = 1
	}
	return n, nil
}
