// Package arlo's root benchmarks regenerate the measured quantities behind
// every table and figure of the paper's evaluation as testing.B targets:
//
//	go test -bench=. -benchmem
//
// Each benchmark corresponds to one experiment (see DESIGN.md's
// per-experiment index); full printed tables come from cmd/arlobench.
package arlo_test

import (
	"context"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/core"
	"arlo/internal/dispatch"
	"arlo/internal/experiments"
	"arlo/internal/model"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/queue"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

// BenchmarkFig1TraceGen measures synthesizing a 10-minute Twitter-
// calibrated trace (the Fig. 1 workload).
func BenchmarkFig1TraceGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := trace.Generate(trace.Config{
			Seed:     int64(i),
			Duration: 10 * time.Minute,
			Arrivals: trace.Poisson{Rate: 300},
			Lengths:  trace.TwitterLengths(int64(i)),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2LatencyModel measures the calibrated latency model over the
// full length range for all three profiled models (Fig. 2).
func BenchmarkFig2LatencyModel(b *testing.B) {
	models := []*model.LatencyModel{model.BertBase(), model.BertLarge(), model.Dolly()}
	b.ResetTimer()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		for _, lm := range models {
			for s := 1; s <= 512; s++ {
				sink += lm.IdealStaticLatency(s) + lm.DynamicLatency(s)
			}
		}
	}
	_ = sink
}

// BenchmarkFig6Testbed measures one full four-scheme testbed comparison at
// the Fig. 6 Bert-Base operating point (shortened trace).
func BenchmarkFig6Testbed(b *testing.B) {
	benchComparison(b, model.BertBase(), 150*time.Millisecond, 1000, 10)
}

// BenchmarkFig7LoadPoint measures one Fig. 7 sweep point (Bert-Base at
// 2000 req/s on 10 GPUs).
func BenchmarkFig7LoadPoint(b *testing.B) {
	benchComparison(b, model.BertBase(), 150*time.Millisecond, 2000, 10)
}

func benchComparison(b *testing.B, lm *model.LatencyModel, slo time.Duration, rate float64, gpus int) {
	b.Helper()
	tr, err := trace.Generate(trace.Stable(1, rate, 10*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	arlo, err := core.NewSystem(core.WithLatencyModel(lm), core.WithSLO(slo))
	if err != nil {
		b.Fatal(err)
	}
	st, err := core.ST(lm, slo)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []*core.System{&arlo.System, st} {
			cfg, err := s.SimConfig(tr, gpus, 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(tr.Requests)), "requests/run")
}

// BenchmarkFig8AutoScaled measures a full auto-scaled simulation (Fig. 8
// conditions, shortened trace), configured the way Fig8 configures Arlo.
func BenchmarkFig8AutoScaled(b *testing.B) {
	a, err := core.NewSystem(core.WithModel("bert-large"))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(trace.Bursty(3, 500, time.Minute))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := a.SimConfig(tr, 5, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if cfg.Scaler, err = allocator.NewAutoScaler(a.SLO()); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 2: the ILP solve time at the paper's three scales. The reported
// ns/op IS the table entry.
func BenchmarkTable2ILP50GPUs8Runtimes(b *testing.B)    { benchILP(b, 50, 8) }
func BenchmarkTable2ILP200GPUs12Runtimes(b *testing.B)  { benchILP(b, 200, 12) }
func BenchmarkTable2ILP1000GPUs16Runtimes(b *testing.B) { benchILP(b, 1000, 16) }

func benchILP(b *testing.B, gpus, runtimes int) {
	b.Helper()
	arch := model.Arch{
		Name: "bench", Layers: 12, Hidden: 768, Heads: 12, Intermediate: 3072,
		MaxLength: 64 * runtimes, TileStep: 64,
	}
	lm, err := model.Calibrate(arch, 1150*time.Microsecond,
		1150*time.Microsecond*time.Duration(4*runtimes)/8, 3.56, 1.22)
	if err != nil {
		b.Fatal(err)
	}
	p, err := profiler.StaticProfile(lm, arch.RuntimeLengths(), 150*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := allocator.NewSolver(p)
	if err != nil {
		b.Fatal(err)
	}
	q := make([]float64, runtimes)
	weight := 0.0
	for i := range q {
		q[i] = math.Exp(-0.4 * float64(i))
		weight += q[i] / float64(p.Runtimes[i].Capacity)
	}
	for i := range q {
		q[i] *= 0.6 * float64(gpus) / weight
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Allocate(gpus, q); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 9: per-dispatch overhead of the Request Scheduler at scale. The
// ns/op IS the figure's per-dispatch time.
func BenchmarkFig9Dispatch200Instances(b *testing.B)  { benchDispatch(b, 200, 6) }
func BenchmarkFig9Dispatch1200Instances(b *testing.B) { benchDispatch(b, 1200, 6) }
func BenchmarkFig9Dispatch1200L12(b *testing.B)       { benchDispatch(b, 1200, 12) }

func benchDispatch(b *testing.B, instances, L int) {
	b.Helper()
	rs, ml := benchScheduler(b, instances, L)
	lengths := benchLengths()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := rs.Dispatch(lengths[i%len(lengths)])
		if err != nil {
			b.Fatal(err)
		}
		ml.OnComplete(in) // keep load steady across iterations
	}
}

// BenchmarkFig9DispatchParallel measures the same per-dispatch overhead
// with every core dispatching at once — the concurrent serving path the
// lock-striped queue exists for. Run with -cpu 1,4,8 to see scaling.
func BenchmarkFig9DispatchParallel200Instances(b *testing.B)  { benchDispatchParallel(b, 200, 6) }
func BenchmarkFig9DispatchParallel1200Instances(b *testing.B) { benchDispatchParallel(b, 1200, 6) }
func BenchmarkFig9DispatchParallel1200L12(b *testing.B)       { benchDispatchParallel(b, 1200, 12) }

func benchDispatchParallel(b *testing.B, instances, L int) {
	b.Helper()
	rs, ml := benchScheduler(b, instances, L)
	lengths := benchLengths()
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stagger each goroutine's walk through the length cycle so the
		// benchmark models independent request streams, not eight clients
		// replaying identical traffic in lockstep.
		i := int(gid.Add(1)) * 509
		for pb.Next() {
			in, err := rs.Dispatch(lengths[i%len(lengths)])
			if err != nil {
				b.Error(err)
				return
			}
			ml.OnComplete(in)
			i++
		}
	})
}

// BenchmarkFig9DispatchObserverOn measures the Fig. 9 dispatch decision
// plus everything the observability plane adds to the hot path: a submit
// count, the context-first dispatch (Decision by value), a demotion count
// when taken, and a span fold into the striped histograms. Every cluster
// records, so the gap to BenchmarkFig9Dispatch1200Instances IS the
// plane's cost (`make bench-obs` prints both).
func BenchmarkFig9DispatchObserverOn(b *testing.B) {
	rec := obs.NewRecorder(12)
	rs, ml := benchScheduler(b, 1200, 6)
	lengths := benchLengths()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		length := lengths[i%len(lengths)]
		rec.RecordSubmit()
		in, dec, err := rs.DispatchCtx(ctx, length)
		if err != nil {
			b.Fatal(err)
		}
		if dec.Level > dec.IdealLevel {
			rec.RecordDemotion(dec.IdealLevel, dec.Level)
		}
		ml.OnComplete(in)
		span := obs.Span{
			Length:     length,
			Queue:      50 * time.Microsecond,
			Exec:       2 * time.Millisecond,
			Total:      2050 * time.Microsecond,
			IdealLevel: dec.IdealLevel,
			Level:      dec.Level,
			Instance:   in.ID,
			Peeked:     dec.Peeked,
		}
		rec.RecordSpan(&span)
	}
}

// BenchmarkFig9DispatchParallelGlobalMutex is the pre-striping baseline:
// identical work, but every dispatch+complete serialized through one
// global mutex the way cluster.Cluster used to. The gap between this and
// BenchmarkFig9DispatchParallel1200L12 at -cpu 8 is the tentpole's win.
func BenchmarkFig9DispatchParallelGlobalMutex(b *testing.B) {
	rs, ml := benchScheduler(b, 1200, 12)
	lengths := benchLengths()
	var mu sync.Mutex
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(gid.Add(1)) * 509 // same stagger as the striped variant
		for pb.Next() {
			mu.Lock()
			in, err := rs.Dispatch(lengths[i%len(lengths)])
			if err != nil {
				mu.Unlock()
				b.Error(err)
				return
			}
			ml.OnComplete(in)
			mu.Unlock()
			i++
		}
	})
}

func benchScheduler(b *testing.B, instances, L int) (*dispatch.RequestScheduler, *queue.MultiLevel) {
	b.Helper()
	maxLens := make([]int, 12)
	for i := range maxLens {
		maxLens[i] = 64 * (i + 1)
	}
	ml, err := queue.NewMultiLevel(maxLens)
	if err != nil {
		b.Fatal(err)
	}
	for id := 0; id < instances; id++ {
		if err := ml.Add(queue.NewInstance(id, id%12, id%40, 60)); err != nil {
			b.Fatal(err)
		}
	}
	rs, err := dispatch.NewRequestSchedulerParams(ml, 0.85, 0.9, L)
	if err != nil {
		b.Fatal(err)
	}
	return rs, ml
}

func benchLengths() []int {
	lengths := make([]int, 4096)
	for i := range lengths {
		lengths[i] = 1 + (i*193)%768
	}
	return lengths
}

// BenchmarkFig10LargeScale measures the Bert-Large large-scale simulation
// (Fig. 10 conditions, scaled down).
func BenchmarkFig10LargeScale(b *testing.B) {
	lm := model.BertLarge()
	tr, err := trace.Generate(trace.Bursty(5, 8000, 15*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	arlo, err := core.NewSystem(core.WithLatencyModel(lm))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := arlo.SimConfig(tr, 100, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("no requests completed")
		}
	}
	b.ReportMetric(float64(len(tr.Requests)), "requests/run")
}

// BenchmarkFig11RuntimeSweep measures one N-runtimes configuration
// (Fig. 11, N=8).
func BenchmarkFig11RuntimeSweep(b *testing.B) {
	lm := model.BertLarge()
	tr, err := trace.Generate(trace.Bursty(7, 4800, 15*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSystem(core.WithLatencyModel(lm), core.WithNumRuntimes(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg, err := s.SimConfig(tr, 40, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3PeriodicAllocation measures the periodic-allocation
// policy end to end (Table 3 conditions, shortened trace).
func BenchmarkTable3PeriodicAllocation(b *testing.B) {
	a, err := core.NewSystem(core.WithModel("bert-large"), core.WithAllocPeriod(20*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(trace.Config{
		Seed: 9, Duration: time.Minute,
		Arrivals: trace.Poisson{Rate: 4200},
		Lengths: trace.DriftingLengths{
			Mu: math.Log(120), SigmaWindow: 0.4, DriftAmp: 0.3,
			DriftPeriod: 160 * time.Second, Min: 1, Max: 512,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Simulate(tr, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Dispatchers measures the RS-vs-baselines ablation on one
// shortened Table 4 trace.
func BenchmarkTable4Dispatchers(b *testing.B) {
	lm := model.BertLarge()
	tr, err := trace.Generate(trace.Bursty(13, 2200, 20*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	systems := make([]*core.Arlo, 0, 3)
	for _, policy := range []string{"RS", "ILB", "IG"} {
		s, err := core.NewSystem(core.WithLatencyModel(lm), core.WithDispatchPolicy(policy))
		if err != nil {
			b.Fatal(err)
		}
		systems = append(systems, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range systems {
			cfg, err := s.SimConfig(tr, 20, 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig12AllocationSeries measures the Runtime Scheduler tracking a
// drifting trace (Fig. 12 conditions, shortened).
func BenchmarkFig12AllocationSeries(b *testing.B) {
	a, err := core.NewSystem(core.WithModel("bert-large"), core.WithAllocPeriod(15*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(trace.Bursty(15, 5000, time.Minute))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := a.Simulate(tr, 40)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Allocations) < 2 {
			b.Fatal("expected reallocations")
		}
	}
}

// BenchmarkCalibrationSimulator measures the simulator half of the
// section 5.2.1 calibration (the prototype half runs in real time and is
// exercised by cmd/arlobench -exp calib).
func BenchmarkCalibrationSimulator(b *testing.B) {
	a, err := core.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(trace.Stable(17, 300, 10*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Simulate(tr, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationExactVsEvenAllocation compares the exact solver against
// the even-split heuristic on identical demand (design choice: exact
// Pareto-DP vs cheap heuristics).
func BenchmarkAblationExactVsEvenAllocation(b *testing.B) {
	a, err := core.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	q := []float64{400, 300, 150, 80, 40, 20, 10, 5}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Allocate(50, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("even", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := allocator.EvenAllocation(50, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStaircaseStep sweeps the runtime spacing (32 vs 64 vs
// 128 tokens) — the staircase design choice of section 3.3.
func BenchmarkAblationStaircaseStep(b *testing.B) {
	lm := model.BertLarge()
	tr, err := trace.Generate(trace.Stable(19, 3000, 15*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 8, 16} {
		s, err := core.NewSystem(core.WithLatencyModel(lm), core.WithNumRuntimes(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{4: "step128", 8: "step64", 16: "step32"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg, err := s.SimConfig(tr, 40, 5*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentSuite runs the cheap experiment drivers end to end,
// guarding against regressions in the harness itself.
func BenchmarkExperimentSuite(b *testing.B) {
	for _, id := range []string{"fig2", "fig4", "fig5"} {
		spec, ok := experiments.ByID(id)
		if !ok {
			b.Fatalf("missing experiment %s", id)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := spec.Run(io.Discard, experiments.Options{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
