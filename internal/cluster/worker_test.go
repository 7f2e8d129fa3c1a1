package cluster

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"arlo/internal/model"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/tenant"
)

// genCostOf is the run-to-completion cost of one generative request
// executed alone: prefill at the request length plus out-1 decode steps at
// the growing context. out <= 1 is the plain CostOf (the prefill yields
// the first token).
func genCostOf(r profiler.Runtime, length, out int) time.Duration {
	cost := r.CostOf(length)
	for t := 1; t < out; t++ {
		cost += r.DecodeStepUniform(1, length+t)
	}
	return cost
}

// genBatchCostOf is the cost of a run-to-completion generative batch: the
// prefill over the whole batch, then a decode tail in which every slot
// stays occupied until the longest output finishes, so each of the
// maxOut-1 iterations runs at full batch width — the padding-in-time that
// continuous batching removes.
func genBatchCostOf(r profiler.Runtime, lengths, outs []int) time.Duration {
	cost := r.BatchCostOf(lengths)
	ctxs := make([]int, len(lengths))
	for t := 1; t < slices.Max(outs); t++ {
		for i, l := range lengths {
			ctxs[i] = l + t
		}
		cost += r.DecodeStepCost(ctxs)
	}
	return cost
}

// TestIterationPricingMatchesClosedForms is the wall-clock-free property
// behind the single worker loop: summed over a sequence's residency, the
// loop's per-iteration prices equal the closed-form references exactly
// (integer nanoseconds) — genCostOf for one slot, and genBatchCostOf for
// a run-to-completion batch, where nobody leaves before the longest
// member. Decode step t is priced at context prompt + t, like
// model.GenerateLatency.
func TestIterationPricingMatchesClosedForms(t *testing.T) {
	static := testProfile(t, []int{512}).Runtimes[0]
	dyn, err := profiler.DynamicProfile(model.BertBase(), []int{64, 256, 512}, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	runtimes := map[string]profiler.Runtime{
		"static":      static,
		"dynamic":     dyn.Runtimes[0],
		"handwritten": {MaxLength: 512, Latency: 3 * time.Millisecond},
	}
	// total drives the loop's pricing to the end of a run-to-completion
	// batch admitted together.
	total := func(rt profiler.Runtime, lengths, outs []int) time.Duration {
		var res residents
		for i := range lengths {
			res.seqs = append(res.seqs, newSeq(&job{span: obs.Span{Length: lengths[i]}, maxNew: outs[i]}))
		}
		var sum time.Duration
		for {
			sum += res.price(rt)
			if res.advance() == 0 {
				return sum
			}
		}
	}
	rng := rand.New(rand.NewSource(12))
	for name, rt := range runtimes {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(8)
			lengths, outs := make([]int, n), make([]int, n)
			for i := range lengths {
				lengths[i] = 1 + rng.Intn(512) // long prompts cross the context clamp
				outs[i] = rng.Intn(48)         // 0 is an encoder request
			}
			if got, want := total(rt, lengths[:1], outs[:1]), genCostOf(rt, lengths[0], outs[0]); got != want {
				t.Fatalf("%s: one slot, length %d out %d: iterations sum to %d ns, genCostOf %d ns",
					name, lengths[0], outs[0], got, want)
			}
			if got, want := total(rt, lengths, outs), genBatchCostOf(rt, lengths, outs); got != want {
				t.Fatalf("%s: batch lengths %v outs %v: iterations sum to %d ns, genBatchCostOf %d ns",
					name, lengths, outs, got, want)
			}
		}
	}
}

// TestTTFTMeasuredInEveryMode: the first token lands when the prefill
// iteration actually ends, so a degraded instance's slowdown shows in
// TTFT whatever the batching mode (it used to be the modeled prefill in
// the two non-continuous loops).
func TestTTFTMeasuredInEveryMode(t *testing.T) {
	p := testProfile(t, []int{512})
	prefill := p.Runtimes[0].CostOf(200)
	for _, m := range []struct {
		name       string
		maxBatch   int
		continuous bool
	}{
		{"sequential", 0, false},
		{"run-to-completion", 4, false},
		{"continuous", 4, true},
	} {
		c, err := New(Config{
			Profile:           p,
			InitialAllocation: []int{1},
			Dispatcher:        rsFactory,
			Overhead:          -1,
			MaxBatch:          m.maxBatch,
			BatchDelay:        -1,
			Continuous:        m.continuous,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.SlowInstance(0, 2); err != nil {
			t.Fatal(err)
		}
		res, err := c.SubmitCtx(context.Background(), Request{Length: 200, MaxNewTokens: 4})
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if res.Span.TTFT < 2*prefill {
			t.Errorf("%s: TTFT %v on a 2x-slowed instance, want >= 2 x modeled prefill %v", m.name, res.Span.TTFT, prefill)
		}
		if res.Span.TTFT >= res.Span.Total || res.Span.OutTokens != 4 {
			t.Errorf("%s: TTFT %v, total %v, out tokens %d", m.name, res.Span.TTFT, res.Span.Total, res.Span.OutTokens)
		}
		if batched := res.Span.BatchSize > 0; batched != (m.maxBatch > 1) {
			t.Errorf("%s: batch size %d on the span", m.name, res.Span.BatchSize)
		}
	}
}

// TestContinuousHonorsWindowPolicy pins the one Former construction: a
// continuous worker with every slot empty forms its batch under the same
// window policy as a run-to-completion one. A lone request waits out its
// tenant class's collection window — short for interactive, stretched for
// batch — and the wait is reported on the span (the continuous loop used
// to ignore the class window and report a zero form wait).
func TestContinuousHonorsWindowPolicy(t *testing.T) {
	const delay = 40 * time.Millisecond
	reg := testRegistry(t,
		tenant.Config{ID: "int", SLOClass: "interactive"},
		tenant.Config{ID: "bat", SLOClass: "batch"},
	)
	c, err := New(Config{
		Profile:           testProfile(t, []int{512}),
		InitialAllocation: []int{1},
		Dispatcher:        rsFactory,
		Overhead:          -1,
		MaxBatch:          4,
		BatchDelay:        delay,
		Continuous:        true,
		Tenants:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	formWait := func(id string) time.Duration {
		res, err := c.SubmitCtx(context.Background(), Request{Length: 100, MaxNewTokens: 2, Tenant: id})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return res.Span.FormWait
	}
	interactive, batch := formWait("int"), formWait("bat")
	if interactive <= 0 || interactive >= delay {
		t.Errorf("interactive member held %v, want its class window (%v), well inside the %v delay",
			interactive, delay/4, delay)
	}
	if batch < 2*delay {
		t.Errorf("batch member held %v, want its stretched window (%v)", batch, delay*tenant.MaxWindowFactor)
	}
}
