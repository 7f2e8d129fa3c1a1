// Sliding-window view of the request stream for the control loop: the
// controller needs the *recent* length distribution (the q-vector of the
// allocation program) and the *recent* p98 latency (the autoscaler's
// target-tracking signal), not the lifetime aggregates the Prometheus
// histograms accumulate. Scraping the text exposition back out of
// ourselves would be both slow and wrong (lifetime counts never forget a
// drifted distribution), so the Recorder keeps a second, windowed
// structure fed from the same RecordSpan call.
//
// Mechanics: the window is a ring of winSlots slots, each covering
// span/winSlots of time. A slot is addressed by epoch — the record (or
// query) timestamp divided by the slot width — so slot i holds epoch e iff
// e ≡ i (mod winSlots); writing into a slot whose stored epoch is older
// first rotates it (CAS on the epoch, winner zeroes the counters). A query
// at time t sums every slot whose epoch lies in (epoch(t)-winSlots,
// epoch(t)], i.e. the trailing window, and stale or future slots are
// excluded by their epoch label alone — no background ticker, no locks on
// the record path.
//
// The rotation race is benign and documented: a writer that loses the CAS
// while another rotates the same slot may fold its sample into counters
// that are being zeroed, undercounting by at most a handful of samples per
// rotation. Control decisions average over thousands of samples; the
// deterministic test suite feeds the window sequentially where the counts
// are exact.
//
// All timestamps are explicit (`RecordSpanAt`, `LengthDistAt`, `QuantileAt`) so
// a fake-clock test can drive the window with virtual time; `RecordSpan`,
// the one wall-clock convenience, just passes time.Now().

package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

const (
	// winSlots is the ring size: queries see between (winSlots-1)/winSlots
	// and 100% of the nominal span depending on phase, which is plenty of
	// resolution for a control period much longer than one slot.
	winSlots = 8
	// defaultWindowSpan matches the paper's 60s observation window for the
	// runtime scheduler's demand estimate.
	defaultWindowSpan = 60 * time.Second
)

// winSlot is one rotation slot of the window. epochPlus1 holds the slot's
// epoch + 1 so the zero value marks "never written".
type winSlot struct {
	epochPlus1 atomic.Int64
	lenCounts  []atomic.Int64
	latBuckets [numBuckets + 1]atomic.Int64
	latCount   atomic.Int64
}

// window is the slot ring plus its configuration. It lives inside
// Recorder.
type window struct {
	// slotNS is the slot width in nanoseconds (span = slotNS * winSlots).
	slotNS atomic.Int64
	// bins, when set, are the runtime max-length upper bounds the length
	// histogram buckets on (ascending; installed through SetLengthBins,
	// which cluster.New calls). Unset means lengths are not windowed.
	bins  atomic.Pointer[[]int]
	slots [winSlots]winSlot
}

func (w *window) init(levels int) {
	w.slotNS.Store(int64(defaultWindowSpan) / winSlots)
	for i := range w.slots {
		w.slots[i].lenCounts = make([]atomic.Int64, levels)
	}
}

// slotFor rotates (if needed) and returns the slot for epoch. Returns nil
// when the slot currently holds a newer epoch (the record is stale by more
// than the full window — drop it rather than pollute a fresh slot).
func (w *window) slotFor(epoch int64) *winSlot {
	idx := epoch % winSlots
	if idx < 0 {
		idx += winSlots
	}
	s := &w.slots[idx]
	want := epoch + 1
	for {
		cur := s.epochPlus1.Load()
		if cur == want {
			return s
		}
		if cur > want {
			return nil
		}
		if s.epochPlus1.CompareAndSwap(cur, want) {
			for i := range s.lenCounts {
				s.lenCounts[i].Store(0)
			}
			for i := range s.latBuckets {
				s.latBuckets[i].Store(0)
			}
			s.latCount.Store(0)
			return s
		}
	}
}

// observe folds one span into the window at the given timestamp.
func (w *window) observe(s *Span, at time.Time) {
	slotNS := w.slotNS.Load()
	if slotNS <= 0 {
		return
	}
	slot := w.slotFor(at.UnixNano() / slotNS)
	if slot == nil {
		return
	}
	if bins := w.bins.Load(); bins != nil && s.Length > 0 {
		b := sort.SearchInts(*bins, s.Length)
		if b >= len(slot.lenCounts) {
			b = len(slot.lenCounts) - 1
		}
		if b >= 0 {
			slot.lenCounts[b].Add(1)
		}
	}
	slot.latBuckets[bucketOf(s.Total)].Add(1)
	slot.latCount.Add(1)
}

// live reports whether a slot holding slotEpoch is inside the trailing
// window of a query at nowEpoch.
func live(slotEpoch, nowEpoch int64) bool {
	return slotEpoch > nowEpoch-winSlots && slotEpoch <= nowEpoch
}

// lengthDist sums the per-bin length counts across live slots. Returns nil
// when no bins are installed.
func (w *window) lengthDist(at time.Time) []int64 {
	if w.bins.Load() == nil {
		return nil
	}
	slotNS := w.slotNS.Load()
	if slotNS <= 0 {
		return nil
	}
	nowEpoch := at.UnixNano() / slotNS
	var out []int64
	for i := range w.slots {
		s := &w.slots[i]
		if !live(s.epochPlus1.Load()-1, nowEpoch) {
			continue
		}
		if out == nil {
			out = make([]int64, len(s.lenCounts))
		}
		for b := range s.lenCounts {
			out[b] += s.lenCounts[b].Load()
		}
	}
	if out == nil {
		out = make([]int64, len(w.slots[0].lenCounts))
	}
	return out
}

// percentile returns the nearest-rank percentile of windowed request
// latency as the upper boundary of the bucket the rank falls in (the same
// exponential layout as the Prometheus histograms), together with the
// sample count. Zero duration when the window is empty. A rank landing in
// the +Inf bucket reports one doubling past the largest finite boundary.
func (w *window) percentile(p float64, at time.Time) (time.Duration, int64) {
	slotNS := w.slotNS.Load()
	if slotNS <= 0 {
		return 0, 0
	}
	nowEpoch := at.UnixNano() / slotNS
	var merged [numBuckets + 1]int64
	var count int64
	for i := range w.slots {
		s := &w.slots[i]
		if !live(s.epochPlus1.Load()-1, nowEpoch) {
			continue
		}
		for b := range s.latBuckets {
			merged[b] += s.latBuckets[b].Load()
		}
		count += s.latCount.Load()
	}
	if count == 0 {
		return 0, 0
	}
	rank := int64(math.Ceil(p * float64(count)))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum int64
	for b := 0; b <= numBuckets; b++ {
		cum += merged[b]
		if cum >= rank {
			return histBase << uint(b), count
		}
	}
	return histBase << uint(numBuckets), count
}

// SetWindow sets the sliding-window span the controller-facing estimators
// (LengthDistAt, P98At) cover. Non-positive spans restore the 60s default.
// Call before recording: changing the slot width re-labels existing slots'
// epochs, effectively clearing the window.
func (r *Recorder) SetWindow(span time.Duration) {
	if span <= 0 {
		span = defaultWindowSpan
	}
	slot := int64(span) / winSlots
	if slot < 1 {
		slot = 1
	}
	r.win.slotNS.Store(slot)
}

// WindowSpan returns the sliding-window span currently in effect.
func (r *Recorder) WindowSpan() time.Duration {
	return time.Duration(r.win.slotNS.Load() * winSlots)
}

// SetLengthBins installs the runtime max-length upper bounds the windowed
// length histogram buckets on (ascending, one per runtime level;
// cluster.New installs its profile's MaxLengths on the cluster's recorder).
// A length l lands in the first bin with upper >= l; longer-than-all
// lengths clamp into the last bin. Nil or empty disables length windowing.
func (r *Recorder) SetLengthBins(uppers []int) {
	if len(uppers) == 0 {
		r.win.bins.Store(nil)
		return
	}
	cp := make([]int, len(uppers))
	copy(cp, uppers)
	sort.Ints(cp)
	r.win.bins.Store(&cp)
}

// RecordSpanAt folds one completed request's span into the histograms,
// the completion counter, and the sliding window, stamped at the given
// time; tests drive the controller's observation plane with virtual time
// through it. The span itself is not retained.
func (r *Recorder) RecordSpanAt(s *Span, at time.Time) {
	r.recordSpan(s)
	r.win.observe(s, at)
}

// LengthDistAt returns the per-runtime-level request counts observed inside
// the sliding window ending at the query time — the raw material of the
// allocation program's demand vector q. The slice is indexed like the
// profile's runtime levels. Nil when no length bins are installed (a
// recorder no cluster built, given no SetLengthBins call).
func (r *Recorder) LengthDistAt(at time.Time) []int64 { return r.win.lengthDist(at) }

// QuantileAt returns the p-quantile (0 < p <= 1, nearest rank) of the
// end-to-end latency of requests completed inside the sliding window ending
// at the query time, resolved to the upper boundary of its histogram bucket
// (125 us * 2^k). Zero when the window is empty.
func (r *Recorder) QuantileAt(p float64, at time.Time) time.Duration {
	d, _ := r.win.percentile(p, at)
	return d
}

// P98At is the 98th-percentile windowed latency as of the query time — the
// autoscaler's target-tracking signal.
func (r *Recorder) P98At(at time.Time) time.Duration { return r.QuantileAt(0.98, at) }

// WindowSamples returns how many request completions the sliding window
// ending at the query time currently holds.
func (r *Recorder) WindowSamples(at time.Time) int64 {
	_, n := r.win.percentile(0.98, at)
	return n
}

// ControllerStat is the control loop's scrape-time state, rendered into
// the arlo_controller_* metrics. The controller package installs a
// callback via SetControllerStats; keeping only a plain-data contract here
// avoids an obs -> controller import cycle.
type ControllerStat struct {
	// Replans counts control periods that re-solved the allocation program.
	Replans int64
	// PlansHeld counts replans whose plan was suppressed by hysteresis.
	PlansHeld int64
	// Replacements counts instance replacements actually applied.
	Replacements int64
	// ScaleOuts / ScaleIns count autoscaler GPU additions and removals.
	ScaleOuts int64
	ScaleIns  int64
	// GPUs is the live cluster size the controller currently sees.
	GPUs int
	// DryRun reports the controller is observing and planning only.
	DryRun bool
}

// SetControllerStats installs the control-loop state callback rendered as
// arlo_controller_* metrics at scrape time. Safe while recording.
func (r *Recorder) SetControllerStats(fn func() ControllerStat) { r.ctrlStats.Store(&fn) }
