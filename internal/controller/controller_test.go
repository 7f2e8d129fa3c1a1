package controller

import (
	"sort"
	"strings"
	"testing"
	"time"

	"arlo/internal/allocator"
	"arlo/internal/cluster"
	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/queue"
)

const testSLO = 150 * time.Millisecond

func testProfile(t testing.TB, lengths ...int) *profiler.Profile {
	t.Helper()
	if len(lengths) == 0 {
		lengths = []int{64, 128, 256, 512}
	}
	p, err := profiler.StaticProfile(model.BertBase(), lengths, testSLO)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testTimeScale compresses the test clusters' emulated compute. The
// controller reads it off the cluster to turn wall-clock window counts
// into modeled-time demand, so demandOf applies it too.
const testTimeScale = 0.01

func testCluster(t testing.TB, p *profiler.Profile, alloc []int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Profile:           p,
		InitialAllocation: alloc,
		Dispatcher: func(ml *queue.MultiLevel) (dispatch.Dispatcher, error) {
			return dispatch.NewRequestScheduler(ml)
		},
		TimeScale: testTimeScale,
		Overhead:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// testRecorder builds the controller's observation plane: a standalone
// recorder (deliberately NOT the cluster's observer, so live wall-clock
// completions cannot collide with the virtual timeline the tests feed).
func testRecorder(t testing.TB, p *profiler.Profile) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder(len(p.Runtimes))
	rec.SetLengthBins(p.MaxLengths())
	return rec
}

// vt maps a virtual offset onto the absolute timeline the window slots on.
func vt(d time.Duration) time.Time { return time.Unix(0, 0).Add(d) }

// feed records one span per length at the given virtual time with the
// given end-to-end latency.
func feed(rec *obs.Recorder, lengths []int, total time.Duration, at time.Time) {
	for _, l := range lengths {
		rec.RecordSpanAt(&obs.Span{Length: l, Total: total, Instance: l}, at)
	}
}

// binCounts mirrors the window's binning: first upper >= length, clamped
// into the last bin.
func binCounts(lengths []int, uppers []int) []int64 {
	counts := make([]int64, len(uppers))
	for _, l := range lengths {
		b := sort.SearchInts(uppers, l)
		if b >= len(uppers) {
			b = len(uppers) - 1
		}
		counts[b]++
	}
	return counts
}

// demandOf converts fed-span bin counts into the q-vector the controller
// derives: requests per SLO window of modeled time.
func demandOf(rec *obs.Recorder, p *profiler.Profile, lengths []int) []float64 {
	counts := binCounts(lengths, p.MaxLengths())
	windows := float64(rec.WindowSpan()) / float64(p.SLO)
	q := make([]float64, len(counts))
	for i, n := range counts {
		q[i] = float64(n) / windows * testTimeScale
	}
	return q
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func l1(a, b []int) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	p := testProfile(t)
	solver, err := allocator.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster(t, p, []int{1, 1, 1, 1})
	rec := testRecorder(t, p)

	if _, err := New(nil, solver, rec, Options{}); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := New(cl, nil, rec, Options{}); err == nil {
		t.Error("nil solver accepted")
	}
	if _, err := New(cl, solver, nil, Options{}); err == nil {
		t.Error("nil recorder accepted")
	}

	c, err := New(cl, solver, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.MaxReplacements != DefaultMaxReplacements {
		t.Errorf("default MaxReplacements = %d, want %d", st.MaxReplacements, DefaultMaxReplacements)
	}
	if st.Hysteresis != DefaultHysteresis {
		t.Errorf("default Hysteresis = %g, want %g", st.Hysteresis, DefaultHysteresis)
	}
	if st.PeriodMS != float64(DefaultPeriod)/float64(time.Millisecond) {
		t.Errorf("default PeriodMS = %g", st.PeriodMS)
	}
	if st.Running {
		t.Error("controller reports running before Start")
	}
}

func TestStepSkipsIdleWindow(t *testing.T) {
	p := testProfile(t)
	solver, _ := allocator.NewSolver(p)
	cl := testCluster(t, p, []int{1, 1, 1, 1})
	rec := testRecorder(t, p)
	c, err := New(cl, solver, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Step(vt(time.Minute))
	if res.Replanned || res.Err != nil {
		t.Fatalf("idle step = %+v, want inert", res)
	}
	if c.Status().Replans != 0 {
		t.Error("idle step counted as a replan")
	}
}

func TestStepErrorsWithoutLengthBins(t *testing.T) {
	p := testProfile(t)
	solver, _ := allocator.NewSolver(p)
	cl := testCluster(t, p, []int{1, 1, 1, 1})
	rec := obs.NewRecorder(len(p.Runtimes)) // no bins installed
	c, err := New(cl, solver, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := c.Step(vt(time.Minute)); res.Err == nil {
		t.Fatal("step without length bins must error")
	}
	if c.Status().LastError == "" {
		t.Error("error not surfaced in Status")
	}
}

func TestDryRunPlansWithoutTouchingTopology(t *testing.T) {
	p := testProfile(t)
	solver, _ := allocator.NewSolver(p)
	cl := testCluster(t, p, []int{4, 0, 0, 0})
	rec := testRecorder(t, p)
	c, err := New(cl, solver, rec, Options{DryRun: true, Hysteresis: -1, MaxReplacements: -1})
	if err != nil {
		t.Fatal(err)
	}
	// All demand on the largest runtime: the solve must want to move
	// instances off level 0.
	lengths := make([]int, 200)
	for i := range lengths {
		lengths[i] = 500
	}
	now := vt(time.Minute)
	feed(rec, lengths, time.Millisecond, now)
	res := c.Step(now)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Replanned || len(res.Plan) == 0 {
		t.Fatalf("dry-run step = %+v, want a non-empty plan", res)
	}
	if res.Applied != 0 {
		t.Fatalf("dry run applied %d replacements", res.Applied)
	}
	if got := cl.Allocation(); !equalInts(got, []int{4, 0, 0, 0}) {
		t.Fatalf("dry run mutated topology: %v", got)
	}
	if st := c.Status(); !st.DryRun || st.Replacements != 0 || st.Replans != 1 {
		t.Fatalf("status after dry-run step: %+v", st)
	}
}

func TestHysteresisHoldsMarginalPlans(t *testing.T) {
	p := testProfile(t)
	solver, _ := allocator.NewSolver(p)
	cl := testCluster(t, p, []int{2, 2, 2, 2})
	rec := testRecorder(t, p)
	// An absurd hysteresis margin: no finite improvement can clear it, so
	// any plan the solver produces must be held.
	c, err := New(cl, solver, rec, Options{Hysteresis: 1e9, MaxReplacements: -1})
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]int, 300)
	for i := range lengths {
		lengths[i] = 30
	}
	now := vt(time.Minute)
	feed(rec, lengths, time.Millisecond, now)
	res := c.Step(now)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Replanned {
		t.Fatal("expected a replan")
	}
	if len(res.Plan) == 0 {
		t.Skip("solver already satisfied with uniform split for this demand")
	}
	if !res.Held {
		t.Fatal("marginal plan not held by hysteresis")
	}
	if got := cl.Allocation(); !equalInts(got, []int{2, 2, 2, 2}) {
		t.Fatalf("held plan still mutated topology: %v", got)
	}
	if st := c.Status(); st.PlansHeld != 1 {
		t.Fatalf("PlansHeld = %d, want 1", st.PlansHeld)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	p := testProfile(t)
	solver, _ := allocator.NewSolver(p)
	cl := testCluster(t, p, []int{1, 1, 1, 1})
	rec := testRecorder(t, p)
	c, err := New(cl, solver, rec, Options{Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Start()
	if !c.Running() {
		t.Fatal("not running after Start")
	}
	c.Stop()
	c.Stop()
	if c.Running() {
		t.Fatal("still running after Stop")
	}

	// Stop without Start must not hang.
	c2, err := New(cl, solver, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2.Stop()
}

func TestControllerMetricsExposed(t *testing.T) {
	p := testProfile(t)
	solver, _ := allocator.NewSolver(p)
	cl := testCluster(t, p, []int{1, 1, 1, 1})
	rec := testRecorder(t, p)
	if _, err := New(cl, solver, rec, Options{}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rec.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"arlo_controller_replans_total", "arlo_controller_replacements_total", "arlo_controller_gpus 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
