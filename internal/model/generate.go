package model

import "time"

// Generative (prefill + decode) cost model.
//
// An encoder request is one kernel over its whole sequence. A generative
// request is a prefill over the prompt followed by one decode iteration per
// output token, and the decode iterations are where continuous batching
// earns its win: each iteration is dominated by the fixed launch/framework
// overhead plus a small per-sequence cost, so an iteration over b sequences
// costs barely more than over one — but a sequence that has finished its
// output contributes nothing, and a slot it vacates can be refilled
// mid-flight.
//
// The decode-step model reuses the calibrated affine anchors:
//
//	step(ctx_1..ctx_b) = base + sum_j perToken * (1 + attnFrac * ctx_j / MaxLength)
//
// One token per sequence flows through the MLP (the perToken term) and the
// attention over the growing context adds a fraction of a token-cost that
// scales with how full the context is (KV-cache GEMV: memory-bound, linear
// in context length, far cheaper per cached token than prefill FLOPs).
// attnFrac = 0.5 means a sequence at full context costs 1.5 token-units per
// step. For BERT-Base anchors this puts a batch-1 decode step at ~0.63 ms
// and a batch-8 step at ~0.70 ms, against a 512-token prefill of ~4.9 ms —
// the regime where iteration-level scheduling pays.

// decodeAttnFrac is the marginal attention cost of a full context, in
// per-token units (see package comment above).
const decodeAttnFrac = 0.5

// DecodeStepLatency returns the cost of one decode iteration over a batch
// of sequences with the given context lengths (prompt + tokens generated so
// far). Contexts are clamped to the architecture's MaxLength. An empty
// batch costs nothing.
func (m *LatencyModel) DecodeStepLatency(ctxLens []int) time.Duration {
	if len(ctxLens) == 0 {
		return 0
	}
	total := float64(m.base)
	maxLen := float64(m.arch.MaxLength)
	for _, c := range ctxLens {
		if c < 0 {
			c = 0
		}
		if c > m.arch.MaxLength {
			c = m.arch.MaxLength
		}
		total += float64(m.perToken) * (1 + decodeAttnFrac*float64(c)/maxLen)
	}
	return time.Duration(total)
}

// DecodeStepLatencyUniform is DecodeStepLatency for b sequences all at the
// same context length — the common capacity-planning query, allocation-free.
func (m *LatencyModel) DecodeStepLatencyUniform(b, ctx int) time.Duration {
	if b <= 0 {
		return 0
	}
	if ctx < 0 {
		ctx = 0
	}
	if ctx > m.arch.MaxLength {
		ctx = m.arch.MaxLength
	}
	per := float64(m.perToken) * (1 + decodeAttnFrac*float64(ctx)/float64(m.arch.MaxLength))
	return time.Duration(float64(m.base) + float64(b)*per)
}
