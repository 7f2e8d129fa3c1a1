package arlo_test

import (
	"strings"
	"testing"
	"time"

	"arlo/internal/chaos"
	"arlo/internal/controller"
	"arlo/internal/core"
	"arlo/internal/obs"
	"arlo/internal/serve"
	"arlo/internal/tokenizer"
	"arlo/internal/trace"
)

// TestClusterOwnsOneRecorder pins the one-set-of-books rule: a bare
// cluster books what it serves into the recorder it was built with, and
// every layer that ships a cluster (the server, the control loop, the
// chaos harness) reads and writes that same recorder.
func TestClusterOwnsOneRecorder(t *testing.T) {
	a, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := a.NewCluster(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rec := cl.Recorder()
	if _, err := cl.Submit(100); err != nil {
		t.Fatal(err)
	}
	if got := rec.Completed(); got != 1 {
		t.Errorf("bare cluster booked %d completions, want 1", got)
	}

	srv, err := serve.New(tokenizer.New(), cl)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Recorder() != rec {
		t.Error("serve.New reads a recorder other than the cluster's")
	}
	if _, err := a.NewController(cl, controller.Options{}); err != nil {
		t.Fatal(err)
	}
	if out := exposition(t, rec); !strings.Contains(out, "arlo_controller_gpus 8") {
		t.Error("the controller core.NewController builds does not report through the cluster's recorder")
	}

	tr, err := trace.Generate(trace.Stable(1, 200, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chaos.Run(chaos.Config{Profile: a.Profile, Allocation: cl.Allocation(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	// The run's cluster is gone, but its recorder is recognisable: only a
	// cluster's own recorder has length bins and renders its gauges.
	if rep.Recorder.LengthDistAt(time.Now()) == nil || !strings.Contains(exposition(t, rep.Recorder), "arlo_level_instances") {
		t.Error("chaos.Run's Report.Recorder is not its cluster's")
	}
}

func exposition(t *testing.T, rec *obs.Recorder) string {
	t.Helper()
	var sb strings.Builder
	if err := rec.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
