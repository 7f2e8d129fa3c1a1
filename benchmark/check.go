package main

import (
	"fmt"
	"sync/atomic"
)

// The correct-output check on every reply. The emulated classifier is
// deterministic over token ids, so what can be checked from outside is:
// the server tokenized the text to the length the harness's own tokenizer
// gets, the same text always gets the same label, a Generate produced
// exactly its budget, and a refusal is the typed rate_limited one, for the
// only tenant that has a bucket.

var labelIndex = map[string]int32{"negative": 1, "neutral": 2, "positive": 3}

type checker struct {
	in *inputs
	// labels remembers the first label seen per pool slot (0 = none yet).
	labels []atomic.Int32
	// untypedRefusals counts errors on the noisy stream that were not the
	// typed refusal.
	untypedRefusals atomic.Int64
}

func newChecker(in *inputs) *checker {
	return &checker{in: in, labels: make([]atomic.Int32, len(in.pool))}
}

func (c *checker) check(w *workload, rq request, rep *reply, err error) outcome {
	if err != nil {
		noisy := w.tenants && w.streams[rq.stream].tenant == noisyID
		if noisy && typedRefusal(err) {
			return refused
		}
		if noisy {
			c.untypedRefusals.Add(1)
		}
		return failed
	}
	if rep.seqLen != c.in.pool[rq.pool].length {
		return failed
	}
	label, known := labelIndex[rep.label]
	if !known {
		return failed
	}
	if !c.labels[rq.pool].CompareAndSwap(0, label) && c.labels[rq.pool].Load() != label {
		return failed
	}
	if w.generate && rep.outTokens != rq.budget {
		return failed
	}
	return ok
}

// tally is the conservation ledger of one run.
type tally struct {
	attempted, ok, refused, failed int
}

func tallyOf(samples []sample) tally {
	t := tally{attempted: len(samples)}
	for i := range samples {
		switch samples[i].outcome {
		case ok:
			t.ok++
		case refused:
			t.refused++
		default:
			t.failed++
		}
	}
	return t
}

// conserved reports an error unless every attempted request is accounted
// for exactly once and the servers' own books agree: nothing the recorder
// counted as submitted is still unresolved once the load has drained.
func (t tally) conserved(st *stack) error {
	if t.attempted != t.ok+t.refused+t.failed {
		return fmt.Errorf("conservation: attempted %d != ok %d + refused %d + failed %d",
			t.attempted, t.ok, t.refused, t.failed)
	}
	for _, s := range st.shards {
		rec := s.srv.Recorder()
		if sub, res := rec.Submitted(), rec.Completed()+rec.Cancelled()+rec.Rejected(); sub != res {
			return fmt.Errorf("conservation: shard %s submitted %d != completed+cancelled+rejected %d",
				s.name, sub, res)
		}
	}
	return nil
}
