package core_test

import (
	"fmt"
	"log"
	"time"

	"arlo/internal/core"
	"arlo/internal/trace"
)

// ExampleNewSystem shows the one-call construction of a full Arlo system with
// the paper's defaults.
func ExampleNewSystem() {
	a, err := core.NewSystem(core.WithModel("bert-base"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a.Model.Arch().Name, a.SLO(), len(a.Profile.Runtimes), "runtimes")
	fmt.Println("max_lengths:", a.Profile.MaxLengths())
	// Output:
	// bert-base 150ms 8 runtimes
	// max_lengths: [64 128 192 256 320 384 448 512]
}

// ExampleArlo_Allocate solves the Runtime Scheduler's program for an
// explicit demand vector: most GPUs go to the loaded short bins, and the
// largest runtime always keeps an instance (Eq. 7).
func ExampleArlo_Allocate() {
	a, err := core.NewSystem(core.WithModel("bert-base"))
	if err != nil {
		log.Fatal(err)
	}
	// Demand per SLO window per length bin: short-heavy, Twitter-like.
	q := []float64{120, 220, 70, 18, 5, 1, 0, 0}
	alloc, err := a.Allocate(10, q)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, n := range alloc {
		total += n
	}
	fmt.Println("GPUs used:", total)
	fmt.Println("largest runtime instances:", alloc[len(alloc)-1])
	// Output:
	// GPUs used: 10
	// largest runtime instances: 1
}

// ExampleArlo_Simulate runs the full system on a synthesized trace; with
// a fixed seed the simulation is fully deterministic.
func ExampleArlo_Simulate() {
	a, err := core.NewSystem(core.WithModel("bert-base"))
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Generate(trace.Stable(7, 800, 10*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	res, err := a.Simulate(tr, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("completed:", res.Completed == len(tr.Requests))
	fmt.Println("SLO violations:", res.Summary.SLOViolations)
	// Output:
	// completed: true
	// SLO violations: 0
}
