package trace

import (
	"math"
	"math/rand"
	"time"
)

// Generative trace mode: each request carries an output token budget drawn
// from an output-length distribution, alongside the existing input-length
// distribution. Measured generative workloads are short-heavy with a long
// tail (most completions stop after a sentence, a few run to the cap), so
// the default sampler is geometric with a hard cap.

// OutputSampler draws per-request output token counts.
type OutputSampler interface {
	// SampleOutput returns the number of tokens the request generates
	// (>= 1), possibly conditioned on arrival time.
	SampleOutput(rng *rand.Rand, at time.Duration) int
}

// GeometricOutputs samples output lengths from a capped geometric
// distribution with the given mean: P(n) ∝ (1-p)^(n-1) p with p = 1/Mean.
// Short-heavy with an exponential tail, truncated at Max.
type GeometricOutputs struct {
	// Mean is the uncapped mean output length (>= 1).
	Mean float64
	// Max caps a single request's output (the serving-side max_new_tokens
	// budget); 0 means no cap.
	Max int
}

// SampleOutput implements OutputSampler.
func (g GeometricOutputs) SampleOutput(rng *rand.Rand, _ time.Duration) int {
	mean := g.Mean
	if mean < 1 {
		mean = 1
	}
	// Inverse-CDF of the geometric distribution on {1, 2, ...}.
	p := 1 / mean
	u := rng.Float64()
	n := 1 + int(math.Floor(math.Log(1-u)/math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	if g.Max > 0 && n > g.Max {
		n = g.Max
	}
	return n
}

// Generative reports whether any request of the trace carries an output
// budget — the predicate that selects the 4-column CSV format.
func (t *Trace) Generative() bool {
	for _, r := range t.Requests {
		if r.OutTokens > 0 {
			return true
		}
	}
	return false
}

// MeanOutTokens returns the mean output budget over generative requests
// (0 for a pure encoder trace).
func (t *Trace) MeanOutTokens() float64 {
	sum, n := 0, 0
	for _, r := range t.Requests {
		if r.OutTokens > 0 {
			sum += r.OutTokens
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Multi-tenant trace mode: each request carries a tenant identity drawn
// from a tenant sampler, so noisy-neighbor scenarios (one tenant bursting
// against steady victims) replay deterministically through the cluster's
// admission and fair-share machinery.

// TenantSampler draws per-request tenant identities.
type TenantSampler interface {
	// SampleTenant returns the submitting tenant's id, possibly
	// conditioned on arrival time.
	SampleTenant(rng *rand.Rand, at time.Duration) string
}

// WeightedTenants assigns tenants by independent weighted draws: request
// streams mix in proportion to the weights.
type WeightedTenants struct {
	// IDs are the tenant identities to draw from.
	IDs []string
	// Weights are the relative draw weights, parallel to IDs; nil (or a
	// length mismatch) means uniform.
	Weights []float64
}

// SampleTenant implements TenantSampler.
func (w WeightedTenants) SampleTenant(rng *rand.Rand, _ time.Duration) string {
	if len(w.IDs) == 0 {
		return ""
	}
	if len(w.Weights) != len(w.IDs) {
		return w.IDs[rng.Intn(len(w.IDs))]
	}
	total := 0.0
	for _, wt := range w.Weights {
		if wt > 0 {
			total += wt
		}
	}
	if total <= 0 {
		return w.IDs[rng.Intn(len(w.IDs))]
	}
	u := rng.Float64() * total
	for i, wt := range w.Weights {
		if wt <= 0 {
			continue
		}
		u -= wt
		if u < 0 {
			return w.IDs[i]
		}
	}
	return w.IDs[len(w.IDs)-1]
}
