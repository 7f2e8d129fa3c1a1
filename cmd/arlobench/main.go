// Command arlobench regenerates the paper's tables and figures and checks
// the asserted claims about the live serving stack.
//
// Usage:
//
//	arlobench -list
//	arlobench -exp fig6 [-seed 42] [-full]
//	arlobench -exp claim-batch,claim-tenants
//	arlobench -exp all
//
// Quick mode (default) scales trace durations down so the whole suite
// finishes in a few minutes; -full runs paper-scale workloads. All
// workloads are deterministic for a given seed. A claim that is not met,
// or an arm whose conservation audit fails, exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"arlo/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "", "experiment ids, comma-separated (fig1..fig12, table2..table4, calib, ablation-*, claim-*), or \"all\"")
		seed = flag.Int64("seed", 42, "workload seed")
		full = flag.Bool("full", false, "run paper-scale durations and rates")
		list = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, s := range experiments.All() {
			fmt.Printf("  %-12s %s\n", s.ID, s.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	opt := experiments.Options{Seed: *seed, Full: *full}
	var specs []experiments.Spec
	if *exp == "all" {
		specs = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			s, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "arlobench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			specs = append(specs, s)
		}
	}
	for _, s := range specs {
		fmt.Printf("=== %s: %s ===\n", s.ID, s.Title)
		start := time.Now()
		if err := s.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "arlobench: %s failed: %v\n", s.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
}
