package core

import (
	"fmt"

	"arlo/internal/cluster"
	"arlo/internal/controller"
	"arlo/internal/obs"
)

// NewController wires the closed control loop (internal/controller) to a
// running cluster: periodic replanning of the GPU split from the observed
// length distribution, plus target-tracking autoscaling when opts carries
// a Scaler. The loop reads its demand and latency signals from the
// cluster's observability recorder; one is created and installed when the
// cluster runs without observability. A zero opts.Period inherits the
// system's AllocPeriod.
//
// The controller is returned stopped: call Start for the wall-clock
// ticker loop, or drive Step/Autoscale directly with explicit timestamps
// (the deterministic path the convergence tests use).
func (a *Arlo) NewController(cl *cluster.Cluster, opts controller.Options) (*controller.Controller, error) {
	if cl == nil {
		return nil, fmt.Errorf("core: nil cluster")
	}
	if opts.Period <= 0 {
		opts.Period = a.opts.AllocPeriod
	}
	rec := cl.Observer()
	if rec == nil {
		rec = obs.NewRecorder(cl.NumLevels())
		cl.SetObserver(rec)
	}
	return controller.New(cl, a.Solver, rec, opts)
}
