package profiler

// Generative (prefill + decode) profiling: the per-iteration cost queries
// the cluster's worker loop consumes (DecodeStepCost, with BatchCostOf),
// and the gen-aware M_i that keeps the queue's lambda-congestion estimate
// honest once instances hold decode slots for many iterations.

import "time"

// DecodeStepCost returns the cost of one decode iteration over sequences
// at the given context lengths on this runtime. Decode kernels are
// shape-dynamic even when the prefill runtime was compiled statically (the
// per-step KV-cache lookup is a GEMV over exact context, not a padded
// encoder pass), so the model's decode-step curve applies to both
// compilation modes. Hand-constructed Runtimes (no latency model) fall
// back to one full profiled latency per iteration — conservative, but
// well-defined.
func (r Runtime) DecodeStepCost(ctxLens []int) time.Duration {
	if len(ctxLens) == 0 {
		return 0
	}
	if r.lm == nil {
		return r.Latency
	}
	return r.lm.DecodeStepLatency(ctxLens)
}

// DecodeStepUniform is DecodeStepCost for b sequences at one context.
func (r Runtime) DecodeStepUniform(b, ctx int) time.Duration {
	if b <= 0 {
		return 0
	}
	if r.lm == nil {
		return r.Latency
	}
	return r.lm.DecodeStepLatencyUniform(b, ctx)
}

// GenCapacity is the generative M_i: the largest number of queued requests
// an instance drains within the SLO when it serves them through slots
// decode-slots of a continuous-batching loop, each request generating
// meanOut tokens on average. The per-request service share is the prefill
// kernel amortized over the batch plus the request's own decode
// iterations, each amortized over a full iteration (admission keeps slots
// occupied under load, which is when capacity matters). Contexts are taken
// at the runtime's MaxLength — the conservative end of the decode curve.
// Runtimes without a profiled SLO report BatchCapacity unchanged.
func (r Runtime) GenCapacity(slots int, meanOut float64) int {
	if slots < 1 {
		slots = 1
	}
	if r.slo <= 0 || r.Latency <= 0 {
		return r.BatchCapacity(slots)
	}
	if meanOut < 1 {
		meanOut = 1
	}
	share := float64(r.batchLatency(slots))/float64(slots) +
		(meanOut-1)*float64(r.DecodeStepUniform(slots, r.MaxLength))/float64(slots)
	if share <= 0 {
		return r.BatchCapacity(slots)
	}
	n := int(float64(r.slo) / share)
	if n < 1 {
		n = 1
	}
	return n
}
