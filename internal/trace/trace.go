package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Request is one inference request of a trace.
type Request struct {
	// ID is unique within the trace, assigned in arrival order.
	ID int64
	// At is the arrival offset from the start of the trace.
	At time.Duration
	// Length is the tokenized input sequence length.
	Length int
	// OutTokens is the number of tokens the request generates. 0 marks an
	// encoder (classify-style) request; generative traces draw it from the
	// Config's output sampler.
	OutTokens int
	// Tenant identifies the submitting tenant in multi-tenant traces; the
	// empty string is the default (single-tenant) identity.
	Tenant string
}

// Trace is a generated request stream.
type Trace struct {
	// Requests are sorted by arrival time.
	Requests []Request
	// Duration is the trace window length.
	Duration time.Duration
}

// Config describes how to synthesize a trace.
type Config struct {
	// Seed makes generation reproducible.
	Seed int64
	// Duration is the trace window length.
	Duration time.Duration
	// Arrivals generates arrival timestamps.
	Arrivals ArrivalProcess
	// Lengths samples per-request sequence lengths.
	Lengths LengthSampler
	// Outputs samples per-request output token counts; nil produces an
	// encoder trace (OutTokens 0 on every request).
	Outputs OutputSampler
	// Tenants samples per-request tenant identities; nil produces a
	// single-tenant trace (empty Tenant on every request).
	Tenants TenantSampler
}

// Generate synthesizes a trace from the configuration. Generation is
// deterministic for a given Config.
func Generate(cfg Config) (*Trace, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: duration must be positive, got %v", cfg.Duration)
	}
	if cfg.Arrivals == nil {
		return nil, fmt.Errorf("trace: no arrival process configured")
	}
	if cfg.Lengths == nil {
		return nil, fmt.Errorf("trace: no length sampler configured")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ats := cfg.Arrivals.Arrivals(rng, cfg.Duration)
	reqs := make([]Request, len(ats))
	for i, at := range ats {
		reqs[i] = Request{ID: int64(i), At: at, Length: cfg.Lengths.SampleLength(rng, at)}
		if cfg.Outputs != nil {
			reqs[i].OutTokens = cfg.Outputs.SampleOutput(rng, at)
		}
		if cfg.Tenants != nil {
			reqs[i].Tenant = cfg.Tenants.SampleTenant(rng, at)
		}
	}
	return &Trace{Requests: reqs, Duration: cfg.Duration}, nil
}

// Stable returns the Twitter-Stable configuration: Poisson arrivals at the
// given rate with the recalibrated (max 512) length distribution.
func Stable(seed int64, rate float64, duration time.Duration) Config {
	return Config{
		Seed:     seed,
		Duration: duration,
		Arrivals: Poisson{Rate: rate},
		Lengths:  TwitterRecalibrated(seed),
	}
}

// Bursty returns the Twitter-Bursty configuration: MMPP arrivals averaging
// the given rate with the recalibrated (max 512) length distribution.
func Bursty(seed int64, rate float64, duration time.Duration) Config {
	return Config{
		Seed:     seed,
		Duration: duration,
		Arrivals: BurstyAround(rate),
		Lengths:  TwitterRecalibrated(seed),
	}
}

// Clip returns the sub-trace with arrivals in [from, to), re-based so the
// first possible arrival is at offset 0.
func (t *Trace) Clip(from, to time.Duration) *Trace {
	if to > t.Duration {
		to = t.Duration
	}
	if from < 0 {
		from = 0
	}
	lo := sort.Search(len(t.Requests), func(i int) bool { return t.Requests[i].At >= from })
	hi := sort.Search(len(t.Requests), func(i int) bool { return t.Requests[i].At >= to })
	out := make([]Request, hi-lo)
	for i := lo; i < hi; i++ {
		r := t.Requests[i]
		r.At -= from
		out[i-lo] = r
	}
	d := to - from
	if d < 0 {
		d = 0
	}
	return &Trace{Requests: out, Duration: d}
}

// Lengths returns every request length, in arrival order.
func (t *Trace) Lengths() []int {
	out := make([]int, len(t.Requests))
	for i, r := range t.Requests {
		out[i] = r.Length
	}
	return out
}

// MeanRate returns the average arrival rate in requests per second.
func (t *Trace) MeanRate() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(len(t.Requests)) / t.Duration.Seconds()
}

// LengthStats summarizes a set of request lengths.
type LengthStats struct {
	Count  int
	Median int
	P98    int
	Max    int
	Mean   float64
}

// Stats computes length statistics over the whole trace.
func (t *Trace) Stats() LengthStats { return StatsOf(t.Lengths()) }

// StatsOf computes length statistics over the given lengths.
func StatsOf(lengths []int) LengthStats {
	if len(lengths) == 0 {
		return LengthStats{}
	}
	sorted := make([]int, len(lengths))
	copy(sorted, lengths)
	sort.Ints(sorted)
	sum := 0
	for _, l := range sorted {
		sum += l
	}
	return LengthStats{
		Count:  len(sorted),
		Median: quantileInt(sorted, 0.50),
		P98:    quantileInt(sorted, 0.98),
		Max:    sorted[len(sorted)-1],
		Mean:   float64(sum) / float64(len(sorted)),
	}
}

// quantileInt returns sorted[round(p*n)-1]; metrics.Quantile's ceil rule would change fig1's output.
func quantileInt(sorted []int, p float64) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// LengthCDF returns the empirical CDF of request lengths as (length,
// fraction <= length) pairs, one per distinct length.
func (t *Trace) LengthCDF() []LengthCDFPoint {
	ls := t.Lengths()
	if len(ls) == 0 {
		return nil
	}
	sort.Ints(ls)
	out := make([]LengthCDFPoint, 0, 64)
	n := float64(len(ls))
	for i := 0; i < len(ls); i++ {
		if i+1 < len(ls) && ls[i+1] == ls[i] {
			continue // emit each distinct length once, at its last index
		}
		out = append(out, LengthCDFPoint{Length: ls[i], F: float64(i+1) / n})
	}
	return out
}

// LengthCDFPoint is one point of a request-length CDF.
type LengthCDFPoint struct {
	Length int
	F      float64
}

// BinDemand counts the average number of requests per SLO window that fall
// in each runtime's length bin. binUppers must be the sorted runtime
// max_lengths; bin i covers (binUppers[i-1], binUppers[i]]. This is the
// Q_i input of the runtime-allocation program (Eq. 1-7). Requests longer
// than the last bin are counted in the last bin.
func (t *Trace) BinDemand(binUppers []int, sloWindow time.Duration) []float64 {
	return PerWindow(BinCounts(t.Lengths(), binUppers), t.Duration, sloWindow, 1)
}

// PerWindow turns counts observed over span into the average count per
// window, times scale: the one demand estimate the allocation program
// reads. Each caller passes its own counts and span (a trace, the
// simulator's arrivals since its last tick, the live recorder's arrivals
// over one controller period); scale
// is 1 except on a time-compressed live cluster, whose wall-clock counts
// overstate modeled demand by 1/TimeScale. It is all zeros when span or
// window is not positive.
func PerWindow[T int | int64](counts []T, span, window time.Duration, scale float64) []float64 {
	out := make([]float64, len(counts))
	if span <= 0 || window <= 0 {
		return out
	}
	windows := float64(span) / float64(window)
	for i, c := range counts {
		out[i] = float64(c) / windows * scale
	}
	return out
}

// BinCounts counts requests per length bin (BinOf); a non-positive length
// is counted in none.
func BinCounts(lengths []int, binUppers []int) []int {
	out := make([]int, len(binUppers))
	for _, l := range lengths {
		if i := BinOf(binUppers, l); i >= 0 {
			out[i]++
		}
	}
	return out
}

// BinOf is the one length-to-bin rule every demand count uses (a trace's,
// the simulator's arrivals, the live recorder's): bin i of the ascending
// binUppers covers lengths in (binUppers[i-1], binUppers[i]], bin 0
// starting at 1, and lengths above the last upper bound fall into the
// last bin. A non-positive length, or no bins, is -1: counted nowhere.
func BinOf(binUppers []int, length int) int {
	if length <= 0 || len(binUppers) == 0 {
		return -1
	}
	return min(sort.SearchInts(binUppers, length), len(binUppers)-1)
}
