// Package dispatch implements Arlo's Request Scheduler (paper section 3.4,
// Algorithm 1) and the dispatching baselines it is evaluated against:
// intra-group load balance (ILB, the policy of the single-runtime ST/DT
// systems), inter-group greedy (IG), and INFaaS-style bin packing. All
// dispatchers operate on the multi-level queue of package queue and share
// a common interface so systems can swap policies.
//
// Every dispatcher is safe for concurrent use: policies hold only
// read-only configuration and delegate all synchronization to the
// lock-striped multi-level queue, so a cluster can run DispatchCtx from many
// goroutines without a global lock. Candidate levels are walked in
// ascending level index — the package-wide lock order — and no policy
// holds more than one level stripe at a time, so concurrent dispatches
// cannot deadlock.
package dispatch

import (
	"context"
	"errors"
	"fmt"

	"arlo/internal/queue"
)

// ErrTooLong is returned when a request exceeds every deployed runtime's
// max_length.
var ErrTooLong = errors.New("dispatch: request longer than every runtime")

// ErrNoInstances is returned when no instance is deployed for any
// candidate runtime (e.g. mid-replacement).
var ErrNoInstances = errors.New("dispatch: no instance available for the request")

// Dispatcher selects an instance for an arriving request and records the
// dispatch on the multi-level queue eagerly: the instance's outstanding
// count is incremented and its level's heap order restored before the
// call returns, so the next dispatch — on any path — reads a fresh front.
// Completion must be reported back via the queue's OnComplete.
// Implementations are safe for concurrent use.
type Dispatcher interface {
	// DispatchCtx routes one request of the given token length and
	// reports the routing decision, which feeds the observability plane's
	// demotion counters and span records. The context carries the
	// request's deadline and cancellation downstream; the queue walk
	// itself is nanosecond-scale and never blocks, so policies treat it
	// as advisory — enforcement while queued happens in the cluster.
	DispatchCtx(ctx context.Context, length int) (*queue.Instance, Decision, error)
}

// Decision is the observable outcome of one dispatch: which runtime level
// the request ideally belonged to, where it actually went, and how the
// policy got there. It is returned by value so recording a decision never
// allocates on the dispatch hot path.
type Decision struct {
	// IdealLevel is the least-padding feasible runtime level — the head
	// of the Algorithm 1 candidate set Q_e.
	IdealLevel int
	// Level is the runtime level of the chosen instance. Level >
	// IdealLevel means the request was demoted.
	Level int
	// Instance is the ID of the chosen instance.
	Instance int
	// Peeked is how many candidate levels the policy examined before
	// choosing.
	Peeked int
	// Fallback reports that every peeked level was congested and the
	// policy fell back to the top candidate (Algorithm 1 lines 18-20).
	Fallback bool
}

// DemotionHops is how many levels past the ideal runtime the request was
// pushed (0 when served at its ideal level).
func (d Decision) DemotionHops() int {
	if h := d.Level - d.IdealLevel; h > 0 {
		return h
	}
	return 0
}

// RequestScheduler is Arlo's multi-level-queue heuristic (Algorithm 1).
// It walks candidate runtimes in increasing max_length order, accepting
// the first whose least-loaded instance is below a congestion threshold
// that decays by Alpha per level, peeking at most MaxPeek levels, and
// falling back to the top (least padding) candidate when every peeked
// level is congested.
type RequestScheduler struct {
	ml *queue.MultiLevel
	// Lambda is the initial congestion threshold (paper default 0.85).
	Lambda float64
	// Alpha is the per-level threshold decay (paper default 0.9).
	Alpha float64
	// MaxPeek is L, the maximum number of candidate levels examined
	// (paper default 6).
	MaxPeek int
}

// NewRequestScheduler builds the scheduler over a multi-level queue with
// the paper's default parameters (lambda 0.85, alpha 0.9, L 6).
func NewRequestScheduler(ml *queue.MultiLevel) (*RequestScheduler, error) {
	return NewRequestSchedulerParams(ml, 0.85, 0.9, 6)
}

// NewRequestSchedulerParams builds the scheduler with explicit parameters.
func NewRequestSchedulerParams(ml *queue.MultiLevel, lambda, alpha float64, maxPeek int) (*RequestScheduler, error) {
	if ml == nil {
		return nil, fmt.Errorf("dispatch: nil multi-level queue")
	}
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("dispatch: lambda must be in (0, 1], got %v", lambda)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("dispatch: alpha must be in (0, 1], got %v", alpha)
	}
	if maxPeek < 1 {
		return nil, fmt.Errorf("dispatch: max peek level must be >= 1, got %d", maxPeek)
	}
	return &RequestScheduler{ml: ml, Lambda: lambda, Alpha: alpha, MaxPeek: maxPeek}, nil
}

// DispatchCtx implements Algorithm 1. The multi-level peek walk (lines
// 6-17) reads level heads lock-free in ascending level order; only the
// final OnDispatch takes the chosen instance's level stripe.
func (rs *RequestScheduler) DispatchCtx(_ context.Context, length int) (*queue.Instance, Decision, error) {
	var dec Decision
	cands := rs.ml.CandidateLevels(length) // line 2
	if len(cands) == 0 {
		return nil, dec, ErrTooLong
	}
	dec.IdealLevel = cands[0]
	peek := cands
	if len(peek) > rs.MaxPeek { // lines 3-5
		peek = peek[:rs.MaxPeek]
	}
	lambda := rs.Lambda
	var chosen *queue.Instance
	for _, lvl := range peek { // lines 6-17
		dec.Peeked++
		head := rs.ml.Level(lvl).Front()
		if head == nil {
			// No instance currently deployed at this level; treat as
			// fully congested and move on.
			lambda *= rs.Alpha
			continue
		}
		if head.Congestion() < lambda { // lines 9-13
			chosen = head
			break
		}
		lambda *= rs.Alpha // line 15
	}
	if chosen == nil { // lines 18-20: fall back to the top candidate
		dec.Fallback = true
		for _, lvl := range cands {
			if head := rs.ml.Level(lvl).Front(); head != nil {
				chosen = head
				break
			}
		}
	}
	if chosen == nil {
		return nil, dec, ErrNoInstances
	}
	dec.Level, dec.Instance = chosen.Runtime, chosen.ID
	rs.ml.OnDispatch(chosen) // lines 21-22
	return chosen, dec, nil
}

// ILB is the Intra-group Load Balance baseline (Table 4): every request
// goes to its ideal (least padding) runtime, load-balanced across that
// runtime's instances, never demoted.
type ILB struct {
	ml *queue.MultiLevel
}

// NewILB builds the baseline over a multi-level queue.
func NewILB(ml *queue.MultiLevel) (*ILB, error) {
	if ml == nil {
		return nil, fmt.Errorf("dispatch: nil multi-level queue")
	}
	return &ILB{ml: ml}, nil
}

// DispatchCtx implements Dispatcher: least-loaded instance of the first
// candidate level that has instances.
func (d *ILB) DispatchCtx(_ context.Context, length int) (*queue.Instance, Decision, error) {
	var dec Decision
	cands := d.ml.CandidateLevels(length)
	if len(cands) == 0 {
		return nil, dec, ErrTooLong
	}
	dec.IdealLevel = cands[0]
	for _, lvl := range cands {
		dec.Peeked++
		if head := d.ml.Level(lvl).Front(); head != nil {
			dec.Level, dec.Instance = head.Runtime, head.ID
			d.ml.OnDispatch(head)
			return head, dec, nil
		}
	}
	return nil, dec, ErrNoInstances
}

// IG is the Inter-groups Greedy baseline (Table 4): every request goes to
// the least busy instance among all candidate runtimes, regardless of
// padding cost.
type IG struct {
	ml *queue.MultiLevel
}

// NewIG builds the baseline over a multi-level queue.
func NewIG(ml *queue.MultiLevel) (*IG, error) {
	if ml == nil {
		return nil, fmt.Errorf("dispatch: nil multi-level queue")
	}
	return &IG{ml: ml}, nil
}

// DispatchCtx implements Dispatcher: global least-outstanding across all
// candidate levels (each level's head is its least-loaded instance).
// Ties keep the earlier (smaller max_length) level's head.
func (d *IG) DispatchCtx(_ context.Context, length int) (*queue.Instance, Decision, error) {
	var dec Decision
	cands := d.ml.CandidateLevels(length)
	if len(cands) == 0 {
		return nil, dec, ErrTooLong
	}
	dec.IdealLevel = cands[0]
	dec.Peeked = len(cands)
	var best *queue.Instance
	bestOut := 0
	for _, lvl := range cands {
		head := d.ml.Level(lvl).Front()
		if head == nil {
			continue
		}
		// Snapshot the count once so the comparison and the recorded
		// choice agree even while completions race.
		if o := head.Outstanding(); best == nil || o < bestOut {
			best, bestOut = head, o
		}
	}
	if best == nil {
		return nil, dec, ErrNoInstances
	}
	dec.Level, dec.Instance = best.Runtime, best.ID
	d.ml.OnDispatch(best)
	return best, dec, nil
}

// BinPacking is the INFaaS-style dispatcher (section 2.3, 5): requests
// are packed onto already-busy instances that satisfy the length
// requirement, up to a small per-instance bin depth (INFaaS packs work
// into batches on as few instances as possible rather than spreading it),
// spilling to the next instance once a bin fills; with every bin full it
// degrades to the global least-loaded instance. It is length-feasible but
// neither padding- nor dynamics-aware — the two deficiencies the paper
// attributes to INFaaS.
type BinPacking struct {
	ml *queue.MultiLevel
}

// packDepth is BinPacking's bin size: the outstanding count up to which
// an instance keeps accepting packed requests.
const packDepth = 4

// NewBinPacking builds the INFaaS-style dispatcher.
func NewBinPacking(ml *queue.MultiLevel) (*BinPacking, error) {
	if ml == nil {
		return nil, fmt.Errorf("dispatch: nil multi-level queue")
	}
	return &BinPacking{ml: ml}, nil
}

// DispatchCtx implements Dispatcher. Selection is fully deterministic:
// earlier (smaller max_length) levels win ties, and within a level ties
// break toward the smaller instance ID — independent of the heaps'
// internal array order. Fallback reports that every bin was full and the
// policy degraded to global least-loaded.
func (d *BinPacking) DispatchCtx(_ context.Context, length int) (*queue.Instance, Decision, error) {
	var dec Decision
	cands := d.ml.CandidateLevels(length)
	if len(cands) == 0 {
		return nil, dec, ErrTooLong
	}
	dec.IdealLevel = cands[0]
	dec.Peeked = len(cands)
	var (
		packed, fallback       *queue.Instance
		packedOut, fallbackOut int
		buf                    [64]*queue.Instance
		scan                   = buf[:0]
	)
	for _, lvl := range cands {
		scan = d.ml.Level(lvl).AppendInstances(scan[:0])
		for _, in := range scan {
			o := in.Outstanding()
			if o < packDepth {
				// Fullest bin below the depth wins; earlier (smaller)
				// levels win ties, then smaller IDs.
				if packed == nil || o > packedOut ||
					(o == packedOut && in.Runtime == packed.Runtime && in.ID < packed.ID) {
					packed, packedOut = in, o
				}
			}
			if fallback == nil || o < fallbackOut ||
				(o == fallbackOut && in.Runtime == fallback.Runtime && in.ID < fallback.ID) {
				fallback, fallbackOut = in, o
			}
		}
	}
	chosen := packed
	if chosen == nil {
		dec.Fallback = true
		chosen = fallback
	}
	if chosen == nil {
		return nil, dec, ErrNoInstances
	}
	dec.Level, dec.Instance = chosen.Runtime, chosen.ID
	d.ml.OnDispatch(chosen)
	return chosen, dec, nil
}

// Factory builds a dispatch policy over the multi-level queue its caller
// owns. The simulator, the live cluster and the chaos harness each take
// one, so a scheme names its policy once and every executor builds it over
// its own queue.
type Factory func(ml *queue.MultiLevel) (Dispatcher, error)

// Policy returns the Factory of the named policy; the names are New's.
func Policy(name string) Factory {
	return func(ml *queue.MultiLevel) (Dispatcher, error) { return New(name, ml) }
}

// SchedulerParams returns the Factory of the Request Scheduler with
// explicit Algorithm 1 parameters.
func SchedulerParams(lambda, alpha float64, maxPeek int) Factory {
	return func(ml *queue.MultiLevel) (Dispatcher, error) {
		return NewRequestSchedulerParams(ml, lambda, alpha, maxPeek)
	}
}

// New returns the named dispatcher over the multi-level queue: "RS",
// "ILB", "IG", or "INFaaS".
func New(name string, ml *queue.MultiLevel) (Dispatcher, error) {
	switch name {
	case "RS":
		return NewRequestScheduler(ml)
	case "ILB":
		return NewILB(ml)
	case "IG":
		return NewIG(ml)
	case "INFaaS":
		return NewBinPacking(ml)
	default:
		return nil, fmt.Errorf("dispatch: unknown policy %q", name)
	}
}
