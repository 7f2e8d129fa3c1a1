package sim

import (
	"testing"
	"time"

	"arlo/internal/cluster"
	"arlo/internal/metrics"
	"arlo/internal/model"
	"arlo/internal/profiler"
	"arlo/internal/trace"
)

func TestBatchExecutionExactCost(t *testing.T) {
	p := bertProfile(t, []int{512})
	lat := p.Runtimes[0].Latency
	// Four simultaneous requests, batch size 4: the first starts alone
	// (event-driven, no batching delay window); the other three form one
	// batch costing 1 + 0.5*2 = 2 executions, finishing together at 3
	// executions total — versus 4 sequential executions at batch size 1.
	var reqs []trace.Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, trace.Request{ID: int64(i), At: 0, Length: 100})
	}
	tr := manualTrace(time.Second, reqs...)
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{1},
		Dispatcher: rsFactory, Overhead: -1, MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed = %d, want 4", res.Completed)
	}
	approxEq := func(a, b time.Duration) bool {
		d := a - b
		return d > -time.Microsecond && d < time.Microsecond
	}
	lats := completedLatencies(res)
	if got := metrics.Quantile(lats, 0); !approxEq(got, lat) {
		t.Errorf("first latency = %v, want %v", got, lat)
	}
	// Nearest rank over four samples: 0.5, 0.75 and 1 read the other three.
	for _, q := range []float64{0.5, 0.75, 1} {
		if g := metrics.Quantile(lats, q); !approxEq(g, 3*lat) {
			t.Errorf("batched latency = %v, want ~%v", g, 3*lat)
		}
	}
}

func TestBatchingRaisesThroughput(t *testing.T) {
	p := bertProfile(t, []int{512})
	// 1.5x oversubscribed at batch 1: sequential execution falls behind,
	// batch 8 keeps up.
	var reqs []trace.Request
	gap := time.Duration(float64(p.Runtimes[0].Latency) / 1.5)
	for i := 0; i < 2000; i++ {
		reqs = append(reqs, trace.Request{ID: int64(i), At: time.Duration(i) * gap, Length: 100})
	}
	tr := manualTrace(time.Duration(2000)*gap, reqs...)
	run := func(batch int) *Result {
		t.Helper()
		res, err := Run(Config{
			Profile: p, Trace: tr, InitialAllocation: []int{1},
			Dispatcher: rsFactory, Overhead: -1, MaxBatch: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	batched := run(8)
	if batched.Summary.Mean >= seq.Summary.Mean/2 {
		t.Errorf("batch-8 mean %v should be far below the collapsing batch-1 mean %v",
			batched.Summary.Mean, seq.Summary.Mean)
	}
}

func TestBatchKeepsFIFOAndConservation(t *testing.T) {
	p := bertProfile(t, []int{64, 512})
	tr, err := trace.Generate(trace.Stable(3, 1500, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{2, 2},
		Dispatcher: rsFactory, MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Rejected != len(tr.Requests) {
		t.Errorf("conservation violated under batching: %d + %d != %d",
			res.Completed, res.Rejected, len(tr.Requests))
	}
	if res.Rejected != 0 {
		t.Errorf("rejected %d", res.Rejected)
	}
}

func TestBatchWithFailureInjection(t *testing.T) {
	p := bertProfile(t, []int{512})
	tr := steadyTrace(400, 3*time.Second, 100)
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{2},
		Dispatcher: rsFactory, MaxBatch: 4,
		Failures: []Failure{{At: time.Second, Runtime: 0, Downtime: 500 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(tr.Requests) {
		t.Errorf("crashed batch lost requests: %d of %d completed", res.Completed, len(tr.Requests))
	}
}

func TestLateBindingConservation(t *testing.T) {
	p := bertProfile(t, []int{64, 512})
	tr, err := trace.Generate(trace.Stable(7, 2500, 8*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{2, 2},
		Dispatcher: rsFactory, LateBinding: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Rejected != len(tr.Requests) {
		t.Errorf("late binding lost requests: %d + %d != %d",
			res.Completed, res.Rejected, len(tr.Requests))
	}
}

func TestLateBindingBuffersUnderSaturation(t *testing.T) {
	p := bertProfile(t, []int{512})
	// Far more simultaneous requests than one instance's SLO capacity.
	var reqs []trace.Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, trace.Request{ID: int64(i), At: 0, Length: 100})
	}
	tr := manualTrace(time.Second, reqs...)
	res, err := Run(Config{
		Profile: p, Trace: tr, InitialAllocation: []int{1},
		Dispatcher: rsFactory, Overhead: -1, LateBinding: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BufferedPeak == 0 {
		t.Error("saturating burst should exercise the central buffer")
	}
	if res.Completed != 100 {
		t.Errorf("completed %d, want all 100", res.Completed)
	}
}

func TestLateBindingImprovesTailUnderLengthBurst(t *testing.T) {
	// A burst of long requests saturates the large runtimes; late binding
	// lets queued work bind to whichever instance frees first instead of
	// gambling on one queue at arrival time.
	p := bertProfile(t, []int{64, 512})
	var reqs []trace.Request
	id := int64(0)
	for at := time.Duration(0); at < 2*time.Second; at += 600 * time.Microsecond {
		reqs = append(reqs, trace.Request{ID: id, At: at, Length: 400})
		id++
	}
	tr := manualTrace(2*time.Second, reqs...)
	run := func(late bool) *Result {
		t.Helper()
		res, err := Run(Config{
			Profile: p, Trace: tr, InitialAllocation: []int{1, 3},
			Dispatcher: rsFactory, Overhead: -1, LateBinding: late,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	early := run(false)
	late := run(true)
	if late.Summary.P98 > early.Summary.P98 {
		t.Errorf("late binding p98 %v should not exceed early binding %v",
			late.Summary.P98, early.Summary.P98)
	}
}

// TestBatchingInstanceSizedLikeCluster holds a batching simulator to the
// live cluster's sizing of an instance. At a 15 ms SLO the 512 runtime's
// B_i is clamped to 5 below MaxBatch 8, while the 128 runtime keeps 8.
// Every simulated instance's M_i must equal the capacity the live cluster
// reports for the same deployment, and no simulated kernel may take more
// than its runtime's B_i members.
func TestBatchingInstanceSizedLikeCluster(t *testing.T) {
	const maxBatch = 8
	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, 15*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]int, len(p.Runtimes))
	clamped := false
	for i, rt := range p.Runtimes {
		slots[i] = rt.BatchWithinSLO(maxBatch)
		clamped = clamped || slots[i] < maxBatch
	}
	if !clamped {
		t.Fatalf("no runtime's B_i is clamped below %d (%v): the profile tests nothing", maxBatch, slots)
	}
	alloc := []int{2, 2}

	live, err := cluster.New(cluster.Config{
		Profile: p, InitialAllocation: alloc, Dispatcher: rsFactory, MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := live.Snapshot()
	live.Close()
	want := make([]int, len(p.Runtimes))
	for _, in := range snap.Instances {
		want[in.Runtime] = in.Capacity
	}

	// Bursts of simultaneous requests on both runtimes keep the queues
	// deeper than any B_i, so every kernel is as wide as the instance allows.
	var reqs []trace.Request
	for burst := 0; burst < 4; burst++ {
		at := time.Duration(burst) * 100 * time.Millisecond
		for i := 0; i < 40; i++ {
			length := 100
			if i%2 == 1 {
				length = 400
			}
			reqs = append(reqs, trace.Request{ID: int64(len(reqs)), At: at, Length: length})
		}
	}
	s, err := newSimulator(Config{
		Profile: p, Trace: manualTrace(time.Second, reqs...), InitialAllocation: alloc,
		Dispatcher: rsFactory, Overhead: -1, MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range s.ml.Instances() {
		if in.MaxCapacity != want[in.Runtime] {
			t.Errorf("instance %d (runtime %d): M_i = %d, live cluster's = %d",
				in.ID, in.Runtime, in.MaxCapacity, want[in.Runtime])
		}
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(reqs) {
		t.Fatalf("completed %d of %d", res.Completed, len(reqs))
	}
	// A kernel's members finish on one instance at one instant, and two
	// kernels of one instance never do, so a kernel is one such group.
	type kernel struct {
		instance int
		end      time.Duration
	}
	width := make(map[kernel]int)
	level := make(map[int]int)
	for _, r := range res.Requests {
		width[kernel{r.Instance, r.At + r.Latency}]++
		level[r.Instance] = r.Level
	}
	widest := make([]int, len(p.Runtimes))
	for k, n := range width {
		rt := level[k.instance]
		if n > slots[rt] {
			t.Errorf("instance %d (runtime %d) ran a kernel of %d members, B_i = %d", k.instance, rt, n, slots[rt])
		}
		widest[rt] = max(widest[rt], n)
	}
	if widest[1] != slots[1] {
		t.Errorf("widest kernel on the clamped runtime = %d, want B_i = %d (the bursts should fill it)", widest[1], slots[1])
	}
}
