package core

import (
	"testing"
	"time"

	"arlo/internal/model"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

const slo = 150 * time.Millisecond

func stableTrace(t testing.TB, rate float64, d time.Duration) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.Stable(17, rate, d))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSystemConstruction(t *testing.T) {
	lm := model.BertBase()
	st, err := ST(lm, slo)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Profile.Runtimes) != 1 || st.Profile.Runtimes[0].MaxLength != 512 {
		t.Error("ST should deploy a single 512 runtime")
	}
	dt, err := DT(lm, []int{20, 50, 100, 300}, slo)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Profile.Runtimes[0].Compilation != model.Dynamic {
		t.Error("DT runtime should be dynamic")
	}
	inf, err := INFaaS(lm, slo)
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.Profile.Runtimes) != 8 {
		t.Errorf("INFaaS should deploy the multi-variant runtimes, got %d", len(inf.Profile.Runtimes))
	}
}

func TestConstructionErrors(t *testing.T) {
	if _, err := ST(nil, slo); err == nil {
		t.Error("nil model should fail for ST")
	}
	if _, err := DT(nil, []int{10}, slo); err == nil {
		t.Error("nil model should fail for DT")
	}
	if _, err := INFaaS(nil, slo); err == nil {
		t.Error("nil model should fail for INFaaS")
	}
}

func TestArloNSweep(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		s, err := NewSystem(WithNumRuntimes(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Profile.Runtimes) != n {
			t.Errorf("WithNumRuntimes(%d) deployed %d runtimes", n, len(s.Profile.Runtimes))
		}
	}
}

func TestSimConfigValidation(t *testing.T) {
	s, err := INFaaS(model.BertBase(), slo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SimConfig(nil, 10, 0); err == nil {
		t.Error("nil trace should fail")
	}
	tr := stableTrace(t, 100, 5*time.Second)
	if _, err := s.SimConfig(tr, 0, 0); err == nil {
		t.Error("zero GPUs should fail")
	}
}

func TestAllFourSystemsRunEndToEnd(t *testing.T) {
	lm := model.BertBase()
	tr := stableTrace(t, 400, 10*time.Second)
	systems := make([]*System, 0, 4)
	arlo, err := NewSystem(WithLatencyModel(lm), WithSLO(slo))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ST(lm, slo)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := DT(lm, tr.Lengths()[:200], slo)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := INFaaS(lm, slo)
	if err != nil {
		t.Fatal(err)
	}
	systems = append(systems, &arlo.System, st, dt, inf)

	results := map[string]*sim.Result{}
	for _, s := range systems {
		cfg, err := s.SimConfig(tr, 10, 5*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Completed+res.Rejected != len(tr.Requests) {
			t.Errorf("%s: conservation violated", s.Name)
		}
		if res.Rejected != 0 {
			t.Errorf("%s: rejected %d requests", s.Name, res.Rejected)
		}
		results[s.Name] = res
	}

	// The paper's headline ordering at moderate load: Arlo beats ST
	// decisively and is at least competitive with DT and INFaaS.
	if results["Arlo"].Summary.Mean >= results["ST"].Summary.Mean {
		t.Errorf("Arlo mean %v should beat ST mean %v",
			results["Arlo"].Summary.Mean, results["ST"].Summary.Mean)
	}
	if results["Arlo"].Summary.Mean > results["DT"].Summary.Mean {
		t.Errorf("Arlo mean %v should not lose to DT mean %v",
			results["Arlo"].Summary.Mean, results["DT"].Summary.Mean)
	}
	if results["Arlo"].Summary.Mean > results["INFaaS"].Summary.Mean {
		t.Errorf("Arlo mean %v should not lose to INFaaS mean %v",
			results["Arlo"].Summary.Mean, results["INFaaS"].Summary.Mean)
	}
}
