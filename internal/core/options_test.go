package core

import (
	"testing"
	"time"

	"arlo/internal/dispatch"
	"arlo/internal/model"
	"arlo/internal/queue"
)

func TestNewSystemDefaults(t *testing.T) {
	a, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if a.Model.Arch().Name != model.BertBaseArch.Name {
		t.Errorf("default model = %q, want bert-base", a.Model.Arch().Name)
	}
	if a.SLO() != 150*time.Millisecond {
		t.Errorf("default SLO = %v, want 150ms", a.SLO())
	}
	if a.opts.DispatchPolicy != "RS" {
		t.Errorf("default policy = %q, want RS", a.opts.DispatchPolicy)
	}
}

func TestNewSystemOptions(t *testing.T) {
	a, err := NewSystem(
		WithModel("bert-large"),
		WithSLO(450*time.Millisecond),
		WithSchedulerParams(0.7, 0.8, 4),
		WithAllocPeriod(60*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if a.Model.Arch().Name != model.BertLargeArch.Name {
		t.Errorf("model = %q, want bert-large", a.Model.Arch().Name)
	}
	if a.SLO() != 450*time.Millisecond {
		t.Errorf("SLO = %v", a.SLO())
	}
	if a.opts.Lambda != 0.7 || a.opts.Alpha != 0.8 || a.opts.MaxPeek != 4 {
		t.Errorf("scheduler params = (%v, %v, %d)", a.opts.Lambda, a.opts.Alpha, a.opts.MaxPeek)
	}
	if a.opts.AllocPeriod != 60*time.Second {
		t.Errorf("alloc period = %v", a.opts.AllocPeriod)
	}
}

func TestNewSystemDispatchPolicy(t *testing.T) {
	a, err := NewSystem(WithDispatchPolicy("ILB"))
	if err != nil {
		t.Fatal(err)
	}
	ml, err := queue.NewMultiLevel(a.Profile.MaxLengths())
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Dispatcher(ml)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*dispatch.ILB); !ok {
		t.Errorf("dispatcher = %T, want *dispatch.ILB", d)
	}
}

func TestNewSystemRejectsBadOptions(t *testing.T) {
	if _, err := NewSystem(WithModel("no-such-model")); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := NewSystem(WithDispatchPolicy("no-such-policy")); err == nil {
		t.Error("unknown policy should fail at construction, not first dispatch")
	}
	if _, err := NewSystem(WithSchedulerParams(2.0, 0.9, 6)); err == nil {
		t.Error("lambda out of range should fail")
	}
	if _, err := NewSystem(WithNumRuntimes(7)); err == nil {
		t.Error("runtime count not dividing max length should fail")
	}
}
