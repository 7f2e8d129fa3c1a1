package cluster

import (
	"runtime"
	"time"

	"arlo/internal/batcher"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/tenant"
)

// The worker loop. Every instance runs the same iteration-level loop: one
// iteration prefills the sequences admitted this round and advances every
// other resident sequence by one decode token, as a single emulated
// kernel priced by the prefill+decode model (Runtime.BatchCostOf +
// Runtime.DecodeStepCost). What used to be three loops are three settings
// of two values the cluster already derives:
//
//	slots = batchCapFor(rt)   continuous   behaviour
//	1                         either       sequential: one request per kernel
//	> 1                       false        run-to-completion batching: members
//	                                       admitted together leave together
//	> 1                       true         continuous batching: finished
//	                                       sequences leave at once and queued
//	                                       requests join freed slots mid-flight
//
// An encoder request is a sequence that owes no decode steps, so it costs
// exactly one iteration in every mode.
//
// Admission rule: with every slot empty the worker blocks in the batch
// former's windowed Next (the SLO-aware collection window shapes the
// batch); a continuous worker with sequences mid-decode switches to the
// non-blocking Poll — decode iterations are never delayed to wait for
// followers, the running batch itself is the collection window.

// seq is one occupied slot.
type seq struct {
	j *job
	// remain counts decode iterations still owed after the prefill (the
	// prefill yields the first token). It goes negative on a finished
	// member of a run-to-completion batch, which keeps its decode width
	// until the longest member is done.
	remain int
	// ctx is the context length of the sequence's next iteration: the
	// prompt for its prefill, prompt + t for decode step t.
	ctx int
	// prefilled marks sequences past their prefill iteration.
	prefilled bool
}

// newSeq seats a promoted job: an encoder request (no output budget) is a
// sequence that owes no decode steps.
func newSeq(j *job) seq {
	return seq{j: j, remain: max(j.maxNew, 1) - 1, ctx: j.span.Length}
}

// residents is a worker's occupied slots, with the scratch its pricing
// reuses so a steady-state iteration allocates nothing.
type residents struct {
	seqs          []seq
	newLens, ctxs []int
}

// price returns the modeled cost of the next iteration: the sequences not
// yet prefilled run as one batched prefill kernel, every other resident
// decodes one token at its current context.
func (r *residents) price(rt profiler.Runtime) time.Duration {
	r.newLens, r.ctxs = r.newLens[:0], r.ctxs[:0]
	for i := range r.seqs {
		if r.seqs[i].prefilled {
			r.ctxs = append(r.ctxs, r.seqs[i].ctx)
		} else {
			r.newLens = append(r.newLens, r.seqs[i].ctx)
		}
	}
	return rt.BatchCostOf(r.newLens) + rt.DecodeStepCost(r.ctxs)
}

// advance moves every resident past the iteration just executed —
// newcomers took their first token from the prefill, the rest one more —
// and reports how many still owe decode steps.
func (r *residents) advance() (owing int) {
	for i := range r.seqs {
		s := &r.seqs[i]
		if s.prefilled {
			s.remain--
		}
		s.prefilled = true
		s.ctx++
		if s.remain > 0 {
			owing++
		}
	}
	return owing
}

// runWorker is the worker loop of one instance.
//
// Lifecycle semantics per sequence, audited by the chaos harness in every
// mode:
//
//   - cancellation while queued: each admission is promoted pending ->
//     running by CAS; a lost CAS means the submitter's context fired first,
//     and only that request is dropped, unexecuted;
//   - cancellation mid-execution: the submitter's running -> abandoned CAS
//     detaches it at once. A continuous worker frees the slot at the end of
//     the iteration; otherwise the member keeps its width until its batch
//     leaves (the kernel cannot be interrupted). Either way the worker
//     recycles the job instead of delivering it;
//   - crash (FailInstance sets w.dead and closes w.kill before closing the
//     channel): the in-flight iteration is interrupted mid-sleep and every
//     resident restarts from scratch through the failover demotion path
//     (the computation is lost, as on a real GPU), against its own requeue
//     budget; the loop then drains the channel, requeueing still-queued
//     work the same way instead of executing it.
//
// Completion accounting is lock-free (atomic decrement on the instance).
func (c *Cluster) runWorker(w *worker, rt profiler.Runtime) {
	defer c.wg.Done()
	// The reusable sleep timer starts stopped; emulate arms it per kernel.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	slots := c.batchCapFor(rt)
	// The deadline slack a member must keep at admission: one full-width
	// kernel, plus its expected decode residency when sequences stay for
	// many iterations, in wall time.
	estimate := rt.BatchDrainTime(slots, slots)
	if c.continuous {
		estimate += time.Duration(float64(rt.DecodeStepUniform(slots, rt.MaxLength)) * (c.meanOut - 1))
	}
	slack := time.Duration(float64(estimate) * c.scale)
	former := &batcher.Former[*job]{
		Source: w.ch,
		Policy: batcher.Policy{
			MaxSize:  slots,
			MaxDelay: time.Duration(float64(c.batchDelay) * c.scale),
		},
		Deadline: func(j *job) (time.Time, bool) {
			if j.deadline.IsZero() {
				return time.Time{}, false
			}
			return j.deadline.Add(-slack), true
		},
		Interrupt: w.kill,
	}
	if c.tenants != nil {
		// SLO-class window policy: batch-class members may stretch the
		// window up to MaxWindowFactor x the configured delay, interactive
		// members shrink it. The per-member Window cap enforces each class's
		// bound; MaxDelay is sized for the most patient class.
		former.Policy.MaxDelay = time.Duration(float64(former.Policy.MaxDelay) * tenant.MaxWindowFactor)
		former.Window = func(j *job) (time.Duration, bool) { return j.window, j.window > 0 }
	}

	var (
		res      residents
		incoming []*job
	)
	// requeueResidents displaces every resident through the failover path
	// (crash semantics: partial generations are lost), unless its submitter
	// abandoned it concurrently.
	requeueResidents := func() {
		for _, s := range res.seqs {
			c.ml.OnComplete(w.inst)
			if s.j.state.CompareAndSwap(jobRunning, jobPending) {
				c.redispatch(s.j, obs.RequeueInflight)
			} else {
				jobPool.Put(s.j)
			}
		}
		res.seqs = res.seqs[:0]
	}

	for {
		// Admit.
		incoming = incoming[:0]
		var formWait time.Duration
		switch {
		case len(res.seqs) == 0:
			var ok bool
			if incoming, ok = former.Next(incoming); !ok {
				return
			}
			if slots > 1 {
				formWait = time.Duration(float64(former.FormedIn()) / c.scale)
			}
		case c.continuous && len(res.seqs) < slots:
			// A closed channel just polls empty; the loop returns through
			// Next once the residents have drained.
			incoming, _ = former.Poll(incoming, slots-len(res.seqs))
		}

		if w.dead.Load() {
			// Crashed: this worker no longer executes. Revert the dispatch
			// accounting and push everything back through the normal
			// dispatch path; the loop keeps draining the channel until it
			// closes.
			for _, j := range incoming {
				c.ml.OnComplete(w.inst)
				c.redispatch(j, obs.RequeueQueued)
			}
			requeueResidents()
			continue
		}

		// Promote admissions into open slots.
		for _, j := range incoming {
			if !j.state.CompareAndSwap(jobPending, jobRunning) {
				c.ml.OnComplete(w.inst)
				jobPool.Put(j)
				continue
			}
			res.seqs = append(res.seqs, newSeq(j))
		}
		if len(res.seqs) == 0 {
			continue
		}

		// One iteration. Batch span fields exist only on batching workers,
		// which keeps unbatched responses byte-identical.
		var batchID int64
		width := 0
		if slots > 1 {
			batchID, width = c.batchSeq.Add(1), len(res.seqs)
			c.obsRec.Load().RecordBatch(rt.Index, width)
		}
		cost := time.Duration(float64(res.price(rt)) * c.scale * w.slowFactor())
		start := time.Now()
		end, killed := c.emulate(w, timer, start, cost)
		if killed {
			requeueResidents()
			continue
		}

		// Newcomers waited until this iteration started, and their first
		// token lands with its end.
		for _, s := range res.seqs {
			if s.prefilled {
				continue
			}
			sp := &s.j.span
			sp.Queue = time.Duration(float64(start.Sub(sp.Enqueued)) / c.scale)
			sp.FormWait, sp.Batch, sp.BatchSize = formWait, batchID, width
			if s.j.maxNew >= 1 {
				sp.TTFT = time.Duration(float64(end.Sub(sp.Enqueued)) / c.scale)
			}
		}
		if owing := res.advance(); owing > 0 && !c.continuous {
			// Run-to-completion: nobody leaves before the longest member.
			continue
		}

		// Release finished (and, mid-flight, abandoned) sequences.
		keep := res.seqs[:0]
		for _, s := range res.seqs {
			j := s.j
			if s.remain > 0 && j.state.Load() != jobAbandoned {
				keep = append(keep, s)
				continue
			}
			c.ml.OnComplete(w.inst)
			// Report in modeled time: un-scale the measured wall time so a
			// compressed run still yields model-scale latencies.
			lat := time.Duration(float64(end.Sub(j.span.Enqueued)) / c.scale)
			j.span.Exec = lat - j.span.Queue
			j.span.OutTokens = j.maxNew
			if j.state.CompareAndSwap(jobRunning, jobDone) {
				j.done <- lat + c.overhead
			} else {
				jobPool.Put(j)
			}
		}
		res.seqs = keep
	}
}

// spinGuard is how much of each emulated execution is busy-waited instead
// of slept: time.Sleep overshoots by OS-timer granularity, which at
// millisecond kernel times would distort tail latencies, so the final
// stretch spins to the deadline.
const spinGuard = 200 * time.Microsecond

// emulate executes one kernel of the given wall-clock cost: sleep to
// within spinGuard of the deadline, then spin out the residue. It returns
// the instant the kernel was seen finished, or killed when the worker
// died mid-kernel (the computation is lost, as on a real GPU).
func (c *Cluster) emulate(w *worker, timer *time.Timer, start time.Time, cost time.Duration) (end time.Time, killed bool) {
	deadline := start.Add(cost)
	if cost > spinGuard {
		timer.Reset(cost - spinGuard)
		select {
		case <-timer.C:
		case <-w.kill:
			if !timer.Stop() {
				<-timer.C
			}
			return end, true
		}
	}
	for end = time.Now(); end.Before(deadline); end = time.Now() {
		// Busy-wait the residue for sub-millisecond accuracy, yielding
		// each pass: on a single-CPU host a long batched kernel would
		// otherwise starve the other workers' batch formers (and the
		// submitters feeding them) for its whole spin. The dead check
		// keeps crash interruption bounded even for kernels short enough
		// to skip the sleep.
		if w.dead.Load() {
			return end, true
		}
		runtime.Gosched()
	}
	return end, false
}
