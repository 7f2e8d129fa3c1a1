package main

import (
	"fmt"
	"math"
	"time"
)

// Metrics of the measured load: the end-to-end ones from the client's
// side, and the per-layer ones that come from reply fields and accessors
// (source M in the issue; the T-sourced ones are in layers.go).

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// judged reports whether the sample belongs to the population latency and
// SLO attainment are judged on: the victim on tenants_batched, every
// request elsewhere.
func judged(w *workload, s *sample) bool {
	return !w.tenants || w.streams[s.stream].tenant == victimID
}

// clientTTFT derives the client-side time to first token. There is no
// token streaming, so it is the client's round trip minus the server's own
// tail after the first token (server latency - server TTFT).
func clientTTFT(s *sample) float64 { return ms(s.lat) - float64(s.srvMS-s.ttftMS) }

// within reports whether an answered request met the workload's limit.
func within(w *workload, s *sample) bool {
	if s.outcome != ok {
		return false // a failed or refused request misses every limit
	}
	if w.generate {
		return clientTTFT(s) <= ms(ttftLimit) && float64(s.tpotMS) <= ms(tpotLimit)
	}
	return s.lat <= slo
}

// sliceOf is the one of the measured window's n slices the sample was due in.
func sliceOf(s *sample, measure time.Duration, n int) int {
	return int(int64(s.at) * int64(n) / int64(measure))
}

// bySlice cuts the judged, answered samples' values into the window's
// slices by due time.
func bySlice(w *workload, rd *runData, measure time.Duration, value func(*sample) float64) [][]float64 {
	n := w.slicesIn(measure)
	out := make([][]float64, n)
	for i := range rd.samples {
		s := &rd.samples[i]
		if s.outcome != ok || !judged(w, s) {
			continue
		}
		k := sliceOf(s, measure, n)
		out[k] = append(out[k], value(s))
	}
	return out
}

// endToEndMetrics computes the client-side metrics; counts records the
// smallest per-slice sample count behind each percentile.
func endToEndMetrics(w *workload, rd *runData, measure time.Duration, setup time.Duration, counts map[string]int) map[string]float64 {
	// Per slice: requests correct and within the limit (all streams), and
	// the judged population's attempted and within-limit counts.
	slices, quiet := w.slicesIn(measure), w.quiet()
	goodIn := make([]float64, slices)
	judgedIn, judgedGood := make([]float64, slices), make([]float64, slices)
	for i := range rd.samples {
		s := &rd.samples[i]
		k, in := sliceOf(s, measure, slices), within(w, s)
		if in {
			goodIn[k]++
		}
		if judged(w, s) {
			judgedIn[k]++
			if in {
				judgedGood[k]++
			}
		}
	}
	var attainment []float64
	for k := range goodIn {
		goodIn[k] /= measure.Seconds() / float64(slices)
		if judgedIn[k] > 0 {
			attainment = append(attainment, judgedGood[k]/judgedIn[k])
		}
	}
	lat := bySlice(w, rd, measure, func(s *sample) float64 { return ms(s.lat) })
	p50, n := sliceQuantile(lat, 0.50, quiet)
	p98, _ := sliceQuantile(lat, 0.98, quiet)
	counts["latency_p50_ms"], counts["latency_p98_ms"] = n, n
	return map[string]float64{
		"setup_s":        setup.Seconds(),
		"goodput_rps":    quietQuantile(goodIn, quiet, false),
		"latency_p50_ms": p50,
		"latency_p98_ms": p98,
		"slo_attainment": quietQuantile(attainment, quiet, false),
	}
}

// validity are the load generator's own figures. An open-loop run that
// sent more than maxLateShare of its requests late, or ended with a backlog worth
// more than half a second of arrivals, measured the generator and not the
// system: it is reported as an error, never as numbers.
func validity(w *workload, rd *runData, m map[string]float64) error {
	var late int
	var maxLate time.Duration
	for i := range rd.samples {
		s := &rd.samples[i]
		if s.late > lateAfter {
			late++
		}
		if s.late > maxLate {
			maxLate = s.late
		}
	}
	share := float64(late) / float64(len(rd.samples))
	m["loadgen.max_late_ms"] = ms(maxLate)
	m["loadgen.late_share"] = share
	m["loadgen.pooled_p98_ms"] = quantile(sortedCopy(okLatencies(w, rd)), 0.98)
	m["loadgen.inflight_at_end"] = float64(rd.inflightAtEnd)
	if !w.open() {
		return nil
	}
	if share > maxLateShare {
		return fmt.Errorf("%s: invalid run, %.2f%% of requests were sent more than %v late (max %v)",
			w.name, 100*share, lateAfter, maxLate)
	}
	if backlog := 0.5 * w.offeredRate(); float64(rd.inflightAtEnd) > backlog {
		return fmt.Errorf("%s: invalid run, %d requests in flight at the end of the window (backlog limit %.0f)",
			w.name, rd.inflightAtEnd, backlog)
	}
	return nil
}

// measuredLayerMetrics fills the M-sourced per-layer metrics.
func measuredLayerMetrics(st *stack, rd *runData, t tally, measure time.Duration, m map[string]float64) {
	w := st.w
	all := func(value func(*sample) float64) []float64 {
		var out []float64
		for i := range rd.samples {
			if s := &rd.samples[i]; s.outcome == ok {
				out = append(out, value(s))
			}
		}
		return sortedCopy(out)
	}
	queueMS := all(func(s *sample) float64 { return float64(s.queueMS) })
	m["cluster.queue_ms_p50"] = quantile(queueMS, 0.50)
	m["cluster.queue_ms_p98"] = quantile(queueMS, 0.98)
	m["cluster.exec_ms_p50"] = quantile(all(func(s *sample) float64 { return float64(s.execMS) }), 0.50)
	// Share of the client's latency the server's queue + kernel explain:
	// >= 0.95 at TimeScale 1, where transport must be invisible.
	m["cluster.queue_exec_share"] = quantile(all(func(s *sample) float64 {
		return float64(s.queueMS+s.execMS) / ms(s.lat)
	}), 0.50)

	var busyMS float64
	var demoted, full int
	var batchSum float64
	for i := range rd.samples {
		s := &rd.samples[i]
		if s.outcome != ok {
			continue
		}
		size := math.Max(1, float64(s.batch))
		if w.continuous {
			// A resident sequence holds one of the instance's maxBatch decode
			// slots for its whole exec: utilization is slot occupancy.
			busyMS += float64(s.execMS) / float64(w.maxBatch)
		} else {
			busyMS += float64(s.execMS) / size // members share their kernel
		}
		if s.hops > 0 {
			demoted++
		}
		batchSum += size
		if w.maxBatch > 1 && int(s.batch) == w.maxBatch {
			full++
		}
	}
	nShards := float64(len(st.shards))
	m["cluster.utilization"] = busyMS / (nShards * instances * ms(rd.window))
	m["cluster.demotion_share"] = float64(demoted) / float64(t.ok)
	m["batcher.mean_batch_size"] = batchSum / float64(t.ok)
	m["batcher.full_batch_share"] = float64(full) / float64(t.ok)

	var requeues, rejected int64
	for _, s := range st.shards {
		requeues += s.srv.Recorder().Requeues()
		rejected += s.srv.Recorder().Rejected()
	}
	m["cluster.requeues"] = float64(requeues)
	m["cluster.rejected"] = float64(rejected)

	if w.generate {
		ttft := bySlice(w, rd, measure, clientTTFT)
		tpot := bySlice(w, rd, measure, func(s *sample) float64 { return float64(s.tpotMS) })
		m["generate.ttft_p50_ms"], _ = sliceQuantile(ttft, 0.50, w.quiet())
		m["generate.ttft_p98_ms"], _ = sliceQuantile(ttft, 0.98, w.quiet())
		m["generate.tpot_p50_ms"], _ = sliceQuantile(tpot, 0.50, w.quiet())
		m["generate.tpot_p98_ms"], _ = sliceQuantile(tpot, 0.98, w.quiet())
	}

	attempted := float64(t.attempted)
	m["process.mallocs_per_req"] = float64(rd.after.mallocs-rd.before.mallocs) / attempted
	m["process.bytes_per_req"] = float64(rd.after.bytes-rd.before.bytes) / attempted
	m["process.gc_cycles"] = float64(rd.after.gcCycles - rd.before.gcCycles)
	m["process.gc_pause_ms"] = ms(rd.after.gcPause - rd.before.gcPause)
	m["process.cpu_us_per_req"] = float64((rd.after.cpu - rd.before.cpu).Microseconds()) / float64(t.ok)
	m["loadgen.failed_share"] = float64(t.failed) / attempted
}

// tenantMetrics reads the admission books: replies for the refusals,
// Registry.Stats for who got the instances.
func tenantMetrics(st *stack, t tally, untyped int64, m map[string]float64) {
	if st.registry == nil {
		return
	}
	m["tenant.refused_share"] = float64(t.refused) / float64(t.attempted)
	m["tenant.untyped_refusals"] = float64(untyped)
	var victim, total float64
	for _, s := range st.registry.Stats() {
		total += float64(s.Dispatched)
		if s.ID == victimID {
			victim = float64(s.Dispatched)
		}
	}
	if total > 0 {
		m["tenant.victim_dispatch_share"] = victim / total
	}
}
