package core

import (
	"time"

	"arlo/internal/model"
	"arlo/internal/tenant"
)

// Option configures an Arlo system for NewSystem. Options are applied in
// order; later options override earlier ones. Every unset knob keeps the
// paper's default.
type Option func(*options)

// WithModel selects a latency-model preset by name ("bert-base",
// "bert-large", "dolly").
func WithModel(name string) Option {
	return func(o *options) { o.Model = name }
}

// WithLatencyModel supplies a custom calibrated latency model, overriding
// WithModel.
func WithLatencyModel(lm *model.LatencyModel) Option {
	return func(o *options) { o.LatencyModel = lm }
}

// WithSLO overrides the preset service-level objective.
func WithSLO(d time.Duration) Option {
	return func(o *options) { o.SLO = d }
}

// WithNumRuntimes overrides the staircase runtime count (must evenly
// divide the model's max length).
func WithNumRuntimes(n int) Option {
	return func(o *options) { o.NumRuntimes = n }
}

// WithSchedulerParams sets the Request Scheduler's Algorithm 1 knobs:
// congestion threshold lambda, per-level decay alpha, and peek bound L.
// Zero keeps the respective default (0.85, 0.9, 6).
func WithSchedulerParams(lambda, alpha float64, maxPeek int) Option {
	return func(o *options) {
		o.Lambda = lambda
		o.Alpha = alpha
		o.MaxPeek = maxPeek
	}
}

// WithDispatchPolicy selects the dispatch policy by name: "RS" (the
// paper's Request Scheduler, the default), or the baselines "ILB", "IG",
// "INFaaS".
func WithDispatchPolicy(name string) Option {
	return func(o *options) { o.DispatchPolicy = name }
}

// WithAllocPeriod sets the Runtime Scheduler reallocation period
// (default 120s).
func WithAllocPeriod(d time.Duration) Option {
	return func(o *options) { o.AllocPeriod = d }
}

// WithBatching enables dynamic batching: cluster instances coalesce up to
// maxSize same-runtime requests per emulated kernel (clamped per runtime
// to the profiled SLO headroom), holding a partial batch at most maxDelay
// waiting for followers. maxSize <= 1 disables batching; maxDelay 0
// selects the SLO-aware default window (SLO/100), negative disables
// waiting (greedy formation).
func WithBatching(maxSize int, maxDelay time.Duration) Option {
	return func(o *options) {
		o.BatchSize = maxSize
		o.BatchDelay = maxDelay
	}
}

// WithContinuousBatching switches clusters built by NewCluster to
// iteration-level (continuous) batching for generative workloads: up to
// maxSize decode slots per instance (clamped per runtime to the profiled
// SLO headroom), batches re-formed every iteration, finished sequences
// exiting immediately and queued requests admitted into freed slots
// mid-flight. meanOutTokens hints the expected output length for the
// gen-aware capacity model (0 defaults to 16).
func WithContinuousBatching(maxSize int, meanOutTokens float64) Option {
	return func(o *options) {
		o.BatchSize = maxSize
		o.Continuous = true
		o.MeanOutTokens = meanOutTokens
	}
}

// WithTenants enables multi-tenant serving in clusters built by
// NewCluster: the given tenant records (id, SLO class, token-bucket
// capacity/refill) form the admission registry. A "default" record
// (unlimited, standard class) is added when none is given.
func WithTenants(cfgs ...tenant.Config) Option {
	return func(o *options) { o.Tenants = append([]tenant.Config(nil), cfgs...) }
}

// NewSystem builds an Arlo system from functional options:
//
//	a, err := core.NewSystem(core.WithModel("bert-base"), core.WithSLO(150*time.Millisecond))
func NewSystem(opts ...Option) (*Arlo, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return build(o)
}
