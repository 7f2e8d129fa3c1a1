// Package experiments regenerates every table and figure of the paper's
// evaluation (section 5). Each experiment is a self-contained driver that
// builds the workload, runs the systems, and prints the same rows or
// series the paper reports. Absolute numbers reflect this reproduction's
// calibrated latency model and synthetic traces; the shapes — which scheme
// wins, by roughly what factor, where crossovers fall — are the
// reproduction targets (see EXPERIMENTS.md for paper-vs-measured). What
// the serving stack added beyond the paper is held to asserted claims
// instead (claims.go).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"arlo/internal/core"
	"arlo/internal/model"
	"arlo/internal/sim"
	"arlo/internal/trace"
)

// Options tune experiment scale.
type Options struct {
	// Seed makes every workload reproducible.
	Seed int64
	// Full runs paper-scale durations and rates; the default (quick) mode
	// scales traces down so the whole suite finishes in minutes.
	Full bool
}

// Spec is one runnable experiment.
type Spec struct {
	// ID is the table/figure identifier, e.g. "fig6" or "table2".
	ID string
	// Title describes what the paper shows there.
	Title string
	// Run executes the experiment and writes its rows to w.
	Run func(w io.Writer, opt Options) error
}

// All returns every experiment in paper order, then the asserted claims
// about the live serving stack (claims.go).
func All() []Spec {
	specs := []Spec{
		{"fig1", "Sequence length distribution at 10-minute vs 10-second scales", Fig1},
		{"fig2", "Static vs dynamic compiled inference latency (BERT-Base/Large, Dolly)", Fig2},
		{"fig4", "Motivating example: ideal vs greedy vs Arlo dispatch, SLO violations", Fig4},
		{"fig5", "Multi-level queue walk-through (Algorithm 1)", Fig5},
		{"fig6", "Testbed latency: Bert-Base and Bert-Large streams, 10 GPUs, 4 schemes", Fig6},
		{"fig7", "Mean latency under varying request load (Bert-Base, 10 GPUs)", Fig7},
		{"fig8", "Consumed GPUs with auto-scaling under bursty load (Bert-Large)", Fig8},
		{"table2", "ILP solving time of Runtime Scheduler", Table2},
		{"fig9", "Request Scheduler dispatch overhead at scale", Fig9},
		{"calib", "Simulator calibration against the real-time prototype (section 5.2.1)", Calibration},
		{"fig10", "Large-scale simulation latency, 4 schemes", Fig10},
		{"fig11", "Latency for N available runtimes (Bert-Large, 40 GPUs)", Fig11},
		{"table3", "Periodic vs even vs global-distribution allocation", Table3},
		{"fig12", "GPUs allocated to eight runtimes over the trace", Fig12},
		{"table4", "RS vs ILB vs IG dispatching (Bert-Large, Twitter-Bursty)", Table4},
		{"ablation-rs", "Request Scheduler parameter sweep (lambda, alpha, L)", AblationRS},
		{"ablation-failures", "Dispatch resilience under instance failures", AblationFailures},
		{"ablation-batch", "Dynamic batch execution trade-off (section 6 extension)", AblationBatch},
		{"ablation-parallel", "Model parallelism: polymorphing with k-GPU instances (section 6 extension)", AblationParallel},
		{"ablation-latebinding", "Early vs late request binding through the central buffer", AblationLateBinding},
	}
	for _, c := range claims() {
		specs = append(specs, c.spec())
	}
	return specs
}

// ByID finds an experiment.
func ByID(id string) (Spec, bool) {
	for _, s := range All() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// newTab returns a tabwriter for aligned experiment tables.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// arloFor builds the Arlo scheme for a latency model at an SLO.
func arloFor(lm *model.LatencyModel, slo time.Duration, extra ...core.Option) (*core.Arlo, error) {
	return core.NewSystem(append([]core.Option{core.WithLatencyModel(lm), core.WithSLO(slo)}, extra...)...)
}

// fourSystems assembles Arlo, ST, DT and INFaaS for one model, profiling
// DT's dynamic runtime on a sample of the trace's lengths.
func fourSystems(lm *model.LatencyModel, slo time.Duration, tr *trace.Trace) ([]*core.System, error) {
	sample := tr.Lengths()
	if len(sample) > 2000 {
		sample = sample[:2000]
	}
	arlo, err := arloFor(lm, slo)
	if err != nil {
		return nil, err
	}
	st, err := core.ST(lm, slo)
	if err != nil {
		return nil, err
	}
	dt, err := core.DT(lm, sample, slo)
	if err != nil {
		return nil, err
	}
	infaas, err := core.INFaaS(lm, slo)
	if err != nil {
		return nil, err
	}
	return []*core.System{st, dt, infaas, &arlo.System}, nil
}

// runComparison simulates each system on the trace with g GPUs and prints
// mean/p50/p98/SLO rows; it returns the per-system results keyed by name.
func runComparison(w io.Writer, systems []*core.System, tr *trace.Trace, g int, mutate func(*sim.Config)) (map[string]*sim.Result, error) {
	results := make(map[string]*sim.Result, len(systems))
	tw := newTab(w)
	fmt.Fprintln(tw, "scheme\tmean(ms)\tp50(ms)\tp98(ms)\tSLO-viol%\trejected")
	for _, s := range systems {
		cfg, err := s.SimConfig(tr, g, 30*time.Second)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		results[s.Name] = res
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f\t%d\n",
			s.Name, ms(res.Summary.Mean), ms(res.Summary.P50), ms(res.Summary.P98),
			100*res.Summary.SLOFraction, res.Rejected)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return results, nil
}

// reduction formats "A reduces B's metric by X%".
func reduction(base, arlo time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (1 - float64(arlo)/float64(base))
}

// printReductions prints Arlo's mean and p98 reductions against each
// baseline, mirroring the paper's headline claims.
func printReductions(w io.Writer, results map[string]*sim.Result) {
	arlo, ok := results["Arlo"]
	if !ok {
		return
	}
	names := make([]string, 0, len(results))
	for name := range results {
		if name != "Arlo" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		r := results[name]
		fmt.Fprintf(w, "Arlo vs %s: mean %+.1f%%, p98 %+.1f%%\n",
			name, -reduction(r.Summary.Mean, arlo.Summary.Mean), -reduction(r.Summary.P98, arlo.Summary.P98))
	}
}
