// Command benchmark is the repository's reference measurement: one seeded
// run of the serving stack over six workloads, reporting named end-to-end
// metrics (tracing off) and per-layer metrics (a traced run). See
// README.md for the glossary and BENCHMARK.json for the contract.
//
//	bash benchmark/run.sh -seed 1                    the whole suite
//	bash benchmark/run.sh -workload wire_direct      one workload
//	bash benchmark/run.sh -check-repeat              the suite twice, compared
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                 one driver run; the last
//	                                                 stdout line is the result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "drives lengths, arrivals, outputs, text pool and router sampler")
	seconds := fs.Int("seconds", runSeconds, "how long one run measures")
	name := fs.String("workload", "", "run this workload only")
	trace := fs.Int("trace", -1, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
	list := fs.Bool("list", false, "print the workload names and why each exists")
	printSpec := fs.Bool("spec", false, "print BENCHMARK.json")
	repeat := fs.Bool("check-repeat", false, "run the suite twice and compare every end-to-end metric against its bound")
	out := fs.String("out", defaultOutDir(), "directory for trace-<workload>.json and result.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", *seconds)
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q (see -list)", *name)
		}
		selected = []workload{*w}
	}
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%s\n    %s\n", w.name, w.why)
		}
		return nil
	case *printSpec:
		blob, err := json.MarshalIndent(spec(), "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", blob)
		return err
	case *repeat:
		return checkRepeat(selected, *seed, *seconds, *out, stdout)
	case *name != "" && *trace >= 0:
		return driverRun(&selected[0], *seed, *seconds, *trace == 1, *out, stdout, stderr)
	}

	// The suite: every workload untraced, then traced.
	var results []*result
	for i := range selected {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(&selected[i], *seed, *seconds, traced, true, *out)
			if err != nil {
				return err
			}
			printResult(stdout, res)
			results = append(results, res)
		}
	}
	return writeJSON(filepath.Join(*out, "result.json"), results)
}

// defaultOutDir is benchmark/out from the repository root and out from
// inside the benchmark directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// driverLine is the one JSON object a driver run ends with.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverRun(w *workload, seed int64, seconds int, traced bool, out string, stdout, stderr io.Writer) error {
	res, err := runWorkload(w, seed, seconds, traced, false, out)
	if err != nil {
		return err
	}
	printResult(stderr, res)
	defs, values := endToEndDefs(), res.EndToEnd
	if traced {
		defs, values = perLayer, res.PerLayer
	}
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]driverValue, len(defs))}
	for _, d := range defs {
		v, set := values[d.Name]
		if !set || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s has no finite value", w.name, d.Name)
		}
		line.Metrics[d.Name] = driverValue{Value: v, Unit: d.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", blob)
	return err
}

func printResult(w io.Writer, r *result) {
	e := r.Envelope
	fmt.Fprintf(w, "\n== %s (traced=%v) seed %d, commit %s, %s, nproc %d, GOMAXPROCS %d, timescale %g\n",
		r.Workload, e.Traced, e.Seed, e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.TimeScale)
	fmt.Fprintf(w, "   %s; warm-up %.1fs + measured %.1fs in %d slices\n", r.Setup, e.WarmupS, e.MeasuredS, e.Slices)
	fmt.Fprintf(w, "   attempted %d = ok %d + refused %d + failed %d; offered %.0f req/s, achieved %.0f req/s\n",
		r.Attempted, r.OK, r.Refused, r.Failed, r.OfferedRPS, r.AchievedRPS)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	row := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			note := ""
			if n, ok := r.MinSliceSamples[d.Name]; ok {
				note = fmt.Sprintf("quiet quantile of %d slices, >= %d samples each", e.Slices, n)
			}
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%s\n", d.Name, values[d.Name], d.Unit, note)
		}
	}
	if r.EndToEnd != nil {
		row(endToEndDefs(), r.EndToEnd)
	}
	if r.PerLayer != nil {
		row(perLayer, r.PerLayer)
		fmt.Fprintf(tw, "   trace written to\t%s\t\t\n", r.TraceFile)
	}
	_ = tw.Flush()
	for _, warning := range r.Warnings {
		fmt.Fprintln(w, "   warning:", warning)
	}
	if r.Workload == "generate_continuous" {
		fmt.Fprintln(w, "   note: no token streaming, so TTFT is derived: client round trip - (server latency - server TTFT)")
	}
}

// checkRepeat runs the selected workloads twice (tracing off) and fails
// if any end-to-end metric of the two runs disagrees by more than the
// metric's bound, in either direction.
func checkRepeat(selected []workload, seed int64, seconds int, out string, stdout io.Writer) error {
	var runs [2][]*result
	for k := range runs {
		for i := range selected {
			res, err := runWorkload(&selected[i], seed, seconds, false, true, out)
			if err != nil {
				return err
			}
			runs[k] = append(runs[k], res)
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiff\tbound\t")
	var bad []string
	for i := range selected {
		a, b := runs[0][i], runs[1][i]
		for _, d := range endToEnd {
			diff := math.Abs(b.EndToEnd[d.Name]-a.EndToEnd[d.Name]) / math.Abs(a.EndToEnd[d.Name])
			verdict := ""
			if diff > d.Bound {
				verdict = "DISAGREE"
				bad = append(bad, a.Workload+"/"+d.Name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n",
				a.Workload, d.Name, a.EndToEnd[d.Name], b.EndToEnd[d.Name], diff, d.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("two runs of the same code disagree beyond the bound on %v", bad)
	}
	return nil
}
