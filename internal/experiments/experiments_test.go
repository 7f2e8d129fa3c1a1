package experiments

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"arlo/internal/chaos"
	"arlo/internal/cluster"
	"arlo/internal/model"
	"arlo/internal/obs"
	"arlo/internal/profiler"
	"arlo/internal/trace"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 15 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if s.ID == "" || s.Title == "" || s.Run == nil {
			t.Errorf("incomplete spec %+v", s)
		}
		if seen[s.ID] {
			t.Errorf("duplicate experiment id %s", s.ID)
		}
		seen[s.ID] = true
		got, ok := ByID(s.ID)
		if !ok || got.ID != s.ID {
			t.Errorf("ByID(%s) failed", s.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should not resolve")
	}
	for _, want := range []string{"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "table2", "table3", "table4", "calib",
		"claim-batch", "claim-generate", "claim-tenants", "claim-controller", "claim-router"} {
		if !seen[want] {
			t.Errorf("experiment %s missing from registry", want)
		}
	}
}

// TestFig4MatchesPaper checks the motivating example's exact violation
// counts: 5 for the ideal policy, 8 for greedy, 0 for the Request
// Scheduler (paper section 3.2, Fig. 4).
func TestFig4MatchesPaper(t *testing.T) {
	out, err := fig4Play()
	if err != nil {
		t.Fatal(err)
	}
	if out.Ideal != 5 {
		t.Errorf("ideal policy violations = %d, want 5", out.Ideal)
	}
	if out.Greedy != 8 {
		t.Errorf("greedy policy violations = %d, want 8", out.Greedy)
	}
	if out.Arlo != 0 {
		t.Errorf("Request Scheduler violations = %d, want 0", out.Arlo)
	}
	if out.Optimal != 0 {
		t.Errorf("optimal violations = %d, want 0", out.Optimal)
	}
}

// goldenSeed is arlobench's default -seed, so a golden file is exactly what
// `arlobench -exp <id>` prints between its header and its timing line.
const goldenSeed = 42

// runPinned runs one experiment in quick mode. Every simulator-only driver
// is a pure function of the seed, and its output must equal
// testdata/golden/<id>.txt byte for byte; the ids in timed print wall-clock
// measurements and are only required to produce output.
func runPinned(t *testing.T, id string, timed bool) {
	t.Helper()
	spec, ok := ByID(id)
	if !ok {
		t.Fatalf("missing %s", id)
	}
	var buf bytes.Buffer
	if err := spec.Run(&buf, Options{Seed: goldenSeed}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if buf.Len() == 0 {
		t.Errorf("%s produced no output", id)
	}
	if timed {
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s output differs from its golden file\n--- got ---\n%s--- want ---\n%s", id, buf.Bytes(), want)
	}
}

// TestCheapExperimentsRun runs the drivers that finish in well under a
// second each and pins the deterministic ones to their golden bytes.
func TestCheapExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig1", "fig2", "fig4", "fig5", "fig9"} {
		runPinned(t, id, id == "fig9")
	}
}

// TestFig5OutputNamesTheInstance checks the walk-through lands where the
// paper's example does.
func TestFig5OutputNamesTheInstance(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(&buf, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dispatched to instance 40") {
		t.Errorf("Fig5 should dispatch to the 28/48 head (instance 40):\n%s", out)
	}
}

// TestFig2AnchorsInOutput checks the printed model spans.
func TestFig2AnchorsInOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(&buf, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"4.23x", "5.25x", "bert-base", "bert-large", "dolly"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 output missing %q", want)
		}
	}
}

// TestSimExperimentsRun runs the simulator-backed drivers end to end (quick
// mode) and pins each to its golden bytes. With -short only the sub-second
// ones run; the rest take 1-5 s each.
func TestSimExperimentsRun(t *testing.T) {
	slow := map[string]bool{"table2": true, "fig8": true, "fig10": true, "table3": true, "fig12": true,
		"table4": true, "ablation-batch": true, "ablation-latebinding": true}
	for _, id := range []string{"fig6", "fig7", "fig10", "fig11", "table2", "table3", "table4", "fig8", "fig12",
		"ablation-rs", "ablation-failures", "ablation-batch", "ablation-parallel", "ablation-latebinding"} {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && slow[id] {
				t.Skip("takes seconds")
			}
			runPinned(t, id, id == "table2")
		})
	}
}

// TestCalibrationRuns replays a real-time clip; skipped with -short.
func TestCalibrationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs in real time")
	}
	var buf bytes.Buffer
	if err := Calibration(&buf, Options{Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fixed overhead") {
		t.Error("calibration output missing the derived overhead")
	}
}

// TestFourSystemsShape asserts the headline ordering the evaluation rests
// on: on a moderate stable load, Arlo's mean beats every baseline.
func TestFourSystemsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulations")
	}
	tr, err := trace.Generate(trace.Stable(9, 900, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	systems, err := fourSystems(model.BertBase(), 150*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runComparison(io.Discard, systems, tr, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	arlo := results["Arlo"].Summary.Mean
	for _, name := range []string{"ST", "DT", "INFaaS"} {
		if arlo >= results[name].Summary.Mean {
			t.Errorf("Arlo mean %v should beat %s mean %v", arlo, name, results[name].Summary.Mean)
		}
	}
}

func TestReductionHelper(t *testing.T) {
	if got := reduction(100*time.Millisecond, 30*time.Millisecond); got != 70 {
		t.Errorf("reduction = %v, want 70", got)
	}
	if got := reduction(0, time.Second); got != 0 {
		t.Errorf("zero base should give 0, got %v", got)
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100*time.Millisecond, 90*time.Millisecond); got != 10 {
		t.Errorf("relDiff = %v, want 10", got)
	}
	if got := relDiff(0, time.Second); got != 0 {
		t.Errorf("relDiff with zero base = %v, want 0", got)
	}
}

// TestClaimRunnerMechanics pins the runner's exit-code rule on the one
// claim cheap enough for tier-1 (the tenants arms replay in modeled time,
// ~0.2 s): it is met as shipped; the same arms under a threshold that
// cannot hold fail with an error naming the claim; a missed timing side
// condition is judged by the median like any low reading; and an arm
// whose ledger does not balance fails on its audit before any value is
// looked at. The real-time claims stay out of `go test` — `make bench-claims`
// runs them.
func TestClaimRunnerMechanics(t *testing.T) {
	var tenants claim
	for _, c := range claims() {
		if c.id == "claim-tenants" {
			tenants = c
		}
	}
	var out bytes.Buffer
	if err := runClaims(&out, Options{Seed: 3}, tenants); err != nil {
		t.Fatalf("claim-tenants as shipped: %v\n%s", err, out.String())
	}
	for _, want := range []string{"envelope: go", "seed=3 quick reps=3", "claim-tenants", ">= 2.00", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	unmeetable := tenants
	unmeetable.atLeast = 1e6
	out.Reset()
	err := runClaims(&out, Options{Seed: 3}, unmeetable)
	if err == nil || !strings.Contains(err.Error(), "claim-tenants") {
		t.Errorf("unmeetable threshold: error %v, want one naming claim-tenants", err)
	}
	if !strings.Contains(out.String(), "NOT MET") {
		t.Errorf("unmeetable threshold: row should read NOT MET:\n%s", out.String())
	}

	// A timing side condition that fails reads as zero: one such
	// repetition is outvoted by the median, two are not.
	for misses, wantErr := range []bool{false, false, true, true} {
		n := 0
		stalls := claim{id: "claim-stalls", atLeast: 2, measure: func(Options) (float64, string, error) {
			if n++; n <= misses {
				return miss("stalled")
			}
			return 5, "", nil
		}}
		if err := runClaims(io.Discard, Options{}, stalls); (err != nil) != wantErr {
			t.Errorf("%d of 3 repetitions missed: error %v, want error %v", misses, err, wantErr)
		}
	}

	p, err := profiler.StaticProfile(model.BertBase(), []int{128, 512}, claimSLO)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.Stable(3, 200, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	tampered := claim{id: "claim-tampered", measure: func(Options) (float64, string, error) {
		rep, err := chaos.Run(chaos.Config{Profile: p, Allocation: []int{1, 1}, Trace: tr})
		if err != nil {
			return 0, "", err
		}
		rep.Completed++
		if _, err := audited(rep, nil); err != nil {
			return 0, "", err
		}
		t.Error("a report with a broken ledger got past the audit")
		return 1, "", nil
	}}
	err = runClaims(io.Discard, Options{}, tampered)
	if err == nil || !strings.Contains(err.Error(), "claim-tampered") || !strings.Contains(err.Error(), "conservation") {
		t.Errorf("tampered ledger: error %v, want the conservation audit naming claim-tampered", err)
	}
}

// TestSummarizeOneUnitSystem pins the one attainment rule: latencies are
// modeled time compared with the modeled SLO (never a time-scaled budget,
// whatever scale the arm ran at), a refusal counts as a miss, and
// percentiles are nearest-rank over completions.
func TestSummarizeOneUnitSystem(t *testing.T) {
	// As a TimeScale 0.05 arm reports them: 10 ms and 200 ms modeled.
	samples := []chaos.Sample{
		{Span: obs.Span{Total: 10 * time.Millisecond}},
		{Span: obs.Span{Total: 200 * time.Millisecond}},
		{Err: cluster.ErrRateLimited},
	}
	s := summarize(samples, claimSLO, nil)
	if s.requests != 3 || s.completed != 2 {
		t.Errorf("requests %d completed %d, want 3 and 2", s.requests, s.completed)
	}
	if s.attainment != 1.0/3 {
		t.Errorf("attainment = %v, want 1/3", s.attainment)
	}
	if s.p50 != 10*time.Millisecond || s.p99 != 200*time.Millisecond {
		t.Errorf("p50 %v p99 %v, want 10ms and 200ms", s.p50, s.p99)
	}
	refused := summarize(samples, claimSLO, func(sm chaos.Sample) bool { return errors.Is(sm.Err, cluster.ErrRateLimited) })
	if refused.requests != 1 || refused.completed != 0 || refused.attainment != 0 || refused.p99 != 0 {
		t.Errorf("refusals only: %+v, want one request, nothing completed or attained", refused)
	}
}
