// Package profiler implements Arlo's offline profiling stage (paper
// section 3.1, workflow step ③): for every compiled runtime it derives the
// per-request computation time, the batch-to-latency mapping L_i, and the
// maximum capacity within the SLO M_i that the Runtime Scheduler's
// optimization consumes. Profiles are produced from the calibrated latency
// model, standing in for measurements on real hardware.
package profiler

import (
	"fmt"
	"sort"
	"time"

	"arlo/internal/model"
)

// Runtime is the profiled description of one compiled runtime variant.
// Runtimes are the unit of Arlo's polymorphing: one model compiled at
// several max_lengths.
type Runtime struct {
	// Index is the position among the model's runtimes, sorted by
	// increasing MaxLength.
	Index int
	// MaxLength is the longest request this runtime accepts.
	MaxLength int
	// Compilation is how the runtime was compiled (static or dynamic).
	Compilation model.Compilation
	// Latency is the profiled batch-1 computation time per request. For
	// static runtimes it is exact (padding makes every request cost the
	// same); for dynamic runtimes it is the mean over the profiling
	// length distribution.
	Latency time.Duration
	// Capacity is M_i: the largest number of queued requests an instance
	// can drain within the SLO, executing sequentially (batch 1).
	Capacity int

	lm *model.LatencyModel
	// slo is the objective the runtime was profiled against; zero for
	// hand-constructed Runtimes, which then report batch-1 figures from
	// the batch-aware accessors.
	slo time.Duration
}

// CostOf returns the computation time of one request of the given length
// on this runtime. Static runtimes cost their compiled-shape latency
// regardless of request length; dynamic runtimes cost the exact-shape
// latency.
func (r Runtime) CostOf(length int) time.Duration {
	if r.Compilation == model.Dynamic && r.lm != nil {
		return r.lm.DynamicLatency(length)
	}
	return r.Latency
}

// BatchCostOf returns the computation time of executing the given requests
// as one batch on this runtime: a static runtime pads every sequence to
// its compiled shape, a dynamic one runs at the batch's longest sequence;
// both scale sub-linearly in batch size (model.BatchScale). An empty batch
// costs nothing.
func (r Runtime) BatchCostOf(lengths []int) time.Duration {
	switch len(lengths) {
	case 0:
		return 0
	case 1:
		return r.CostOf(lengths[0])
	}
	longest := lengths[0]
	for _, l := range lengths[1:] {
		if l > longest {
			longest = l
		}
	}
	base := r.CostOf(longest)
	if r.lm == nil {
		return time.Duration(float64(base) * (1 + 0.5*float64(len(lengths)-1)))
	}
	return time.Duration(float64(base) * r.lm.BatchScale(len(lengths)))
}

// DrainTime returns the time to sequentially process n queued requests —
// the batch-to-completion mapping used for SLO feasibility.
func (r Runtime) DrainTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(n) * r.Latency
}

// batchLatency is L_i(b) for one full kernel: the profiled batch-1
// latency scaled by the sub-linear batch factor.
func (r Runtime) batchLatency(b int) time.Duration {
	if b <= 1 {
		return r.Latency
	}
	if r.lm == nil {
		return time.Duration(float64(r.Latency) * (1 + 0.5*float64(b-1)))
	}
	return time.Duration(float64(r.Latency) * r.lm.BatchScale(b))
}

// BatchDrainTime is the batch-aware DrainTime: the time to drain n queued
// requests when the instance executes batches of up to maxBatch — full
// kernels at L_i(maxBatch) plus one remainder kernel. maxBatch <= 1
// degrades to the sequential DrainTime.
func (r Runtime) BatchDrainTime(n, maxBatch int) time.Duration {
	if n <= 0 {
		return 0
	}
	if maxBatch <= 1 {
		return r.DrainTime(n)
	}
	d := time.Duration(n/maxBatch) * r.batchLatency(maxBatch)
	if rem := n % maxBatch; rem > 0 {
		d += r.batchLatency(rem)
	}
	return d
}

// BatchWithinSLO clamps a requested batch cap to what the profiled L_i(b)
// curve allows: the largest b <= cap whose single-kernel execution still
// fits in the SLO. This is how B_i is derived from the profile rather
// than configured blind — a 512-length runtime near its SLO gets a small
// cap, a short one a large cap. Runtimes without a profiled SLO accept
// the requested cap unchanged.
func (r Runtime) BatchWithinSLO(cap int) int {
	if cap < 1 {
		return 1
	}
	if r.slo <= 0 || r.Latency <= 0 {
		return cap
	}
	b := cap
	for b > 1 && r.batchLatency(b) > r.slo {
		b--
	}
	return b
}

// BatchCapacity is the batch-aware M_i: the largest number of queued
// requests an instance drains within the SLO when it executes batches of
// up to maxBatch. This is what makes Algorithm 1's congestion estimate
// (outstanding / capacity, thresholded by lambda) batch-aware — with the
// sequential Capacity a batching instance looks congested at loads it
// serves comfortably, and the scheduler over-demotes. Runtimes without a
// profiled SLO report the sequential Capacity.
func (r Runtime) BatchCapacity(maxBatch int) int {
	if maxBatch <= 1 || r.slo <= 0 || r.Latency <= 0 {
		return r.Capacity
	}
	n := r.Capacity
	for r.BatchDrainTime(n+1, maxBatch) <= r.slo {
		n++
	}
	return n
}

// MeanLatency returns L_i(B): the profiled mapping from per-instance
// workload to mean request latency (the paper obtains this curve by
// offline profiling). B is the average number of requests an instance
// receives per SLO window (B = C_i/N_i in the allocation program, Eq. 6),
// so the instance's utilization is rho = B/M_i. Under Poisson arrivals
// and deterministic service the profiled curve follows the M/D/1 sojourn
// time lat * (1 + rho/(2(1-rho))); past saturation it grows linearly with
// the excess workload (backlog accumulates for the whole window). The
// queueing shape is what makes the Runtime Scheduler leave headroom on
// highly utilized runtimes instead of packing them to the edge.
func (r Runtime) MeanLatency(b float64) time.Duration {
	if b <= 0 {
		return 0
	}
	m := float64(r.Capacity)
	rho := b / m
	lat := float64(r.Latency)
	const knee = 0.98
	if rho < knee {
		return time.Duration(lat * (1 + rho/(2*(1-rho))))
	}
	// Saturated: continue from the knee with linear backlog growth —
	// every request beyond capacity waits roughly a full drain.
	atKnee := lat * (1 + knee/(2*(1-knee)))
	return time.Duration(atKnee + (rho-knee)*m*lat)
}

// Profile is the full offline profile of one model: its runtimes sorted by
// increasing MaxLength, plus the SLO they were profiled against.
type Profile struct {
	Model    *model.LatencyModel
	SLO      time.Duration
	Runtimes []Runtime
}

// StaticProfile profiles statically compiled runtimes at the given
// max_lengths (which must be positive and strictly increasing) against the
// SLO. This is the polymorphing configuration: one runtime per length step.
func StaticProfile(lm *model.LatencyModel, maxLengths []int, slo time.Duration) (*Profile, error) {
	if lm == nil {
		return nil, fmt.Errorf("profiler: nil latency model")
	}
	if slo <= 0 {
		return nil, fmt.Errorf("profiler: SLO must be positive, got %v", slo)
	}
	if len(maxLengths) == 0 {
		return nil, fmt.Errorf("profiler: need at least one runtime length")
	}
	if !sort.IntsAreSorted(maxLengths) {
		return nil, fmt.Errorf("profiler: max_lengths must be sorted, got %v", maxLengths)
	}
	rts := make([]Runtime, len(maxLengths))
	for i, ml := range maxLengths {
		if ml <= 0 {
			return nil, fmt.Errorf("profiler: max_length must be positive, got %d", ml)
		}
		if i > 0 && ml == maxLengths[i-1] {
			return nil, fmt.Errorf("profiler: duplicate max_length %d", ml)
		}
		lat := lm.StaticLatency(ml)
		cap := capacityWithin(slo, lat)
		if cap < 1 {
			return nil, fmt.Errorf("profiler: runtime length %d latency %v exceeds SLO %v", ml, lat, slo)
		}
		rts[i] = Runtime{
			Index:       i,
			MaxLength:   ml,
			Compilation: model.Static,
			Latency:     lat,
			Capacity:    cap,
			lm:          lm,
			slo:         slo,
		}
	}
	return &Profile{Model: lm, SLO: slo, Runtimes: rts}, nil
}

// DynamicProfile profiles a single dynamically compiled runtime (the DT
// baseline). Its mean latency and capacity are measured over the provided
// representative request lengths, mirroring how a real profiler would
// replay a trace sample.
func DynamicProfile(lm *model.LatencyModel, sampleLengths []int, slo time.Duration) (*Profile, error) {
	if lm == nil {
		return nil, fmt.Errorf("profiler: nil latency model")
	}
	if slo <= 0 {
		return nil, fmt.Errorf("profiler: SLO must be positive, got %v", slo)
	}
	if len(sampleLengths) == 0 {
		return nil, fmt.Errorf("profiler: need sample lengths to profile a dynamic runtime")
	}
	var sum time.Duration
	for _, l := range sampleLengths {
		if l <= 0 || l > lm.Arch().MaxLength {
			return nil, fmt.Errorf("profiler: sample length %d outside (0, %d]", l, lm.Arch().MaxLength)
		}
		sum += lm.DynamicLatency(l)
	}
	mean := sum / time.Duration(len(sampleLengths))
	cap := capacityWithin(slo, mean)
	if cap < 1 {
		return nil, fmt.Errorf("profiler: dynamic mean latency %v exceeds SLO %v", mean, slo)
	}
	rt := Runtime{
		Index:       0,
		MaxLength:   lm.Arch().MaxLength,
		Compilation: model.Dynamic,
		Latency:     mean,
		Capacity:    cap,
		lm:          lm,
		slo:         slo,
	}
	return &Profile{Model: lm, SLO: slo, Runtimes: []Runtime{rt}}, nil
}

// MaxLengths returns the profiled runtimes' max_lengths in order.
func (p *Profile) MaxLengths() []int {
	out := make([]int, len(p.Runtimes))
	for i, r := range p.Runtimes {
		out[i] = r.MaxLength
	}
	return out
}

// IdealRuntime returns the index of the smallest runtime that accepts a
// request of the given length — the least-padding choice. ok is false when
// the request exceeds even the largest runtime.
func (p *Profile) IdealRuntime(length int) (idx int, ok bool) {
	for i, r := range p.Runtimes {
		if r.MaxLength >= length {
			return i, true
		}
	}
	return 0, false
}

// CheckAllocation validates a per-runtime instance allocation against the
// profile and returns the number of instances it deploys: the profile has
// runtimes, the allocation has one count per runtime, no count is negative,
// and at least one instance is deployed. The simulator and the live cluster
// both check their starting deployment here and prefix the error with
// their own package name. A nil profile is an error, not a panic.
func (p *Profile) CheckAllocation(alloc []int) (instances int, err error) {
	if p == nil || len(p.Runtimes) == 0 {
		return 0, fmt.Errorf("profile with no runtimes")
	}
	if len(alloc) != len(p.Runtimes) {
		return 0, fmt.Errorf("allocation has %d entries for %d runtimes", len(alloc), len(p.Runtimes))
	}
	for i, n := range alloc {
		if n < 0 {
			return 0, fmt.Errorf("negative allocation at runtime %d", i)
		}
		instances += n
	}
	if instances == 0 {
		return 0, fmt.Errorf("allocation deploys no instances")
	}
	return instances, nil
}

// capacityWithin returns how many sequential executions of duration lat
// fit in the SLO.
func capacityWithin(slo, lat time.Duration) int {
	if lat <= 0 {
		return 0
	}
	return int(slo / lat)
}
