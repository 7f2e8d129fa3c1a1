package core

import (
	"testing"
	"time"

	"arlo/internal/model"
	"arlo/internal/trace"
)

func TestNewDefaults(t *testing.T) {
	a, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if a.Model.Arch().Name != "bert-base" {
		t.Errorf("default model = %q, want bert-base", a.Model.Arch().Name)
	}
	if a.SLO() != 150*time.Millisecond {
		t.Errorf("default SLO = %v, want 150ms", a.SLO())
	}
	if len(a.Profile.Runtimes) != 8 {
		t.Errorf("default runtimes = %d, want 8", len(a.Profile.Runtimes))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewSystem(WithModel("gpt-9000")); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := NewSystem(WithModel("dolly")); err == nil {
		t.Error("dolly without SLO should fail (no preset)")
	}
	if _, err := NewSystem(WithNumRuntimes(7)); err == nil {
		t.Error("non-divisor runtime count should fail")
	}
	if _, err := NewSystem(WithSchedulerParams(2, 0, 0)); err == nil {
		t.Error("bad lambda should fail")
	}
	if _, err := NewSystem(WithSchedulerParams(0, -1, 0)); err == nil {
		t.Error("bad alpha should fail")
	}
	if _, err := NewSystem(WithSchedulerParams(0, 0, -3)); err == nil {
		t.Error("bad peek level should fail")
	}
}

func TestNewWithCustomSLOAndModel(t *testing.T) {
	a, err := NewSystem(WithModel("dolly"), WithSLO(2*time.Second), WithNumRuntimes(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Profile.Runtimes) != 4 {
		t.Errorf("runtimes = %d, want 4", len(a.Profile.Runtimes))
	}
	b, err := NewSystem(WithLatencyModel(model.BertLarge()))
	if err != nil {
		t.Fatal(err)
	}
	if b.SLO() != 450*time.Millisecond {
		t.Errorf("BERT-Large preset SLO = %v, want 450ms", b.SLO())
	}
}

func TestDemandAndAllocate(t *testing.T) {
	a, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.Stable(5, 500, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	q := a.Demand(tr)
	if len(q) != 8 {
		t.Fatalf("demand bins = %d, want 8", len(q))
	}
	total := 0.0
	for _, v := range q {
		total += v
	}
	if total <= 0 {
		t.Error("demand should be positive")
	}
	al, err := a.Allocate(10, q)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range al.N {
		sum += n
	}
	if sum != 10 {
		t.Errorf("allocation sums to %d, want 10", sum)
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	a, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.Stable(7, 600, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Simulate(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Rejected != len(tr.Requests) {
		t.Error("conservation violated")
	}
	if res.Summary.Mean <= 0 || res.Summary.P98 < res.Summary.Mean {
		t.Errorf("suspicious summary: %v", res.Summary)
	}
	// At 600 req/s on 10 GPUs, Arlo should hold the SLO comfortably.
	if res.Summary.SLOFraction > 0.05 {
		t.Errorf("SLO violations = %.1f%%, want < 5%%", 100*res.Summary.SLOFraction)
	}
	if _, err := a.Simulate(nil, 10); err == nil {
		t.Error("nil trace should fail")
	}
}

func TestNewClusterEvenAndSolved(t *testing.T) {
	a, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := a.NewCluster(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Instances() != 8 {
		t.Errorf("instances = %d, want 8", cl.Instances())
	}
	cl.Close()

	q := make([]float64, 8)
	q[0] = 100
	cl2, err := a.NewCluster(8, q)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	lat, err := cl2.Submit(20)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Error("cluster latency should be positive")
	}
}
