// Quickstart: build an Arlo system for BERT-Base, generate a minute of
// Twitter-like traffic, and compare polymorphing against uniform
// zero-padding on a fixed 10-GPU cluster.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"arlo/internal/core"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

func main() {
	// 1. Build the system: calibrated BERT-Base latency model, 8 static
	//    runtimes (64..512), Runtime Scheduler + Request Scheduler with
	//    the paper's default parameters.
	a, err := core.NewSystem(core.WithModel("bert-base"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %s, SLO %v, runtimes at max_lengths %v\n",
		a.Model.Arch().Name, a.SLO(), a.Profile.MaxLengths())

	// 2. Generate one minute of Twitter-Stable traffic at 1000 req/s.
	tr, err := trace.Generate(trace.Stable(7, 1000, time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	st := tr.Stats()
	fmt.Printf("trace: %d requests, length p50=%d p98=%d\n", st.Count, st.Median, st.P98)

	// 3. Ask the Runtime Scheduler how it would allocate 10 GPUs for this
	//    demand.
	alloc, err := a.Allocate(10, a.Demand(tr))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocation for 10 GPUs: %v (instances per runtime)\n", alloc.N)

	// 4. Simulate Arlo end to end.
	res, err := a.Simulate(tr, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Arlo: %v\n", res.Summary)

	// 5. Compare with the uniform zero-padding baseline (ST).
	stSys, err := core.ST(a.Model, a.SLO())
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := stSys.SimConfig(tr, 10, 20*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	stRes, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ST:   %v\n", stRes.Summary)
	fmt.Printf("polymorphing cuts mean latency by %.1f%%\n",
		100*(1-float64(res.Summary.Mean)/float64(stRes.Summary.Mean)))
}
