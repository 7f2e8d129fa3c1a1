package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"arlo/internal/tokenizer"
)

// envelope stamps a result with what it takes to compare it to another.
type envelope struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	TimeScale  float64 `json:"timescale"`
	WarmupS    float64 `json:"warmup_s"`
	MeasuredS  float64 `json:"measured_s"`
	Slices     int     `json:"slices"`
	Traced     bool    `json:"traced"`
}

// result is one workload run.
type result struct {
	Workload string   `json:"workload"`
	Envelope envelope `json:"envelope"`
	Setup    string   `json:"setup"`
	// Attempted = OK + Refused (typed, expected) + Failed, always.
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Refused   int `json:"refused"`
	Failed    int `json:"failed"`
	// OfferedRPS is the open-loop schedule's rate (0 for a closed loop);
	// AchievedRPS is answered requests per second.
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	// MinSliceSamples is the smallest per-slice sample count behind each
	// slice-median percentile.
	MinSliceSamples map[string]int     `json:"min_slice_samples"`
	EndToEnd        map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer        map[string]float64 `json:"per_layer,omitempty"`
	TraceFile       string             `json:"trace_file,omitempty"`
	// Warnings are the measurement expectations a non-strict run missed.
	Warnings []string `json:"warnings,omitempty"`
}

func commitOf() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout, or no git
	}
	return strings.TrimSpace(string(out))
}

// phases splits a run's --seconds. An untraced run measures for all of
// them; a traced run spends half on an untraced load (the M-sourced layer
// metrics and the p50 tracing overhead is judged against), a fifth on the
// traced replay of the same schedule and a fifth on the serial layer
// drive. Warm-up precedes each load and is discarded.
type phases struct {
	warm, measure, replay, drive time.Duration
}

func planPhases(seconds int, traced bool) phases {
	total := time.Duration(seconds) * time.Second
	p := phases{warm: total / 10, measure: total}
	if traced {
		p.measure, p.replay, p.drive = total/2, total/5, total/5
	}
	return p
}

// setUp generates the inputs and builds the stack setupRepeats times,
// keeping the last, and returns their quiet-quartile time: the figure a
// later change is held to when it moves work out of the request path.
func setUp(w *workload, seed int64, p phases) (*inputs, *stack, time.Duration, error) {
	var in *inputs
	var st *stack
	var took []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		tok := tokenizer.New()
		var err error
		if in, err = generateInputs(w, seed, tok, p.warm, p.measure); err != nil {
			return nil, nil, 0, err
		}
		if st, err = buildStack(w, in, tok); err != nil {
			return nil, nil, 0, err
		}
		took = append(took, float64(time.Since(t0)))
	}
	return in, st, time.Duration(quietQuantile(took, 0.25, true)), nil
}

// runWorkload runs one workload once. Wrong replies and broken conservation
// always fail it. What it expects of the measurement itself (the load
// generator kept its schedule, the traced layers add up to the socket span,
// queue + exec explain the open loops' latency) depends on the machine: a
// strict run fails on a missed expectation, a driver run, which has to
// report whatever the host it landed on did, records a warning and goes on
// (the figures behind each expectation are per-layer metrics either way).
func runWorkload(w *workload, seed int64, seconds int, traced, strict bool, outDir string) (*result, error) {
	p := planPhases(seconds, traced)
	in, st, setup, err := setUp(w, seed, p)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer st.close()

	res := &result{
		Workload: w.name,
		Envelope: envelope{
			Commit: commitOf(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, TimeScale: w.timeScale,
			WarmupS: p.warm.Seconds(), MeasuredS: p.measure.Seconds(), Slices: w.slicesIn(p.measure), Traced: traced,
		},
		Setup:           st.describe(),
		MinSliceSamples: map[string]int{},
	}
	expect := func(err error) error {
		if err == nil || strict {
			return err
		}
		res.Warnings = append(res.Warnings, err.Error())
		return nil
	}
	chk := newChecker(in)
	lr := &loadRun{st: st, in: in, checker: chk, warm: p.warm, measure: p.measure}
	rd, err := lr.run()
	if err != nil {
		return nil, err
	}
	t := tallyOf(rd.samples)
	if err := t.conserved(st); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Attempted, res.OK, res.Refused, res.Failed = t.attempted, t.ok, t.refused, t.failed
	if w.open() {
		res.OfferedRPS = w.offeredRate()
	}
	res.AchievedRPS = float64(t.ok) / rd.window.Seconds()
	if t.ok == 0 {
		return nil, fmt.Errorf("%s: no request was answered correctly (%d attempted)", w.name, t.attempted)
	}

	layer := map[string]float64{}
	if err := expect(validity(w, rd, layer)); err != nil {
		return nil, err
	}
	if !traced {
		res.EndToEnd = endToEndMetrics(w, rd, p.measure, setup, res.MinSliceSamples)
		return res, nil
	}

	// Per-layer metrics: the untraced load's reply fields and accessors,
	// then the traced replay and the serial layer drive.
	for _, d := range perLayer {
		if _, set := layer[d.Name]; !set {
			layer[d.Name] = 0
		}
	}
	layer["allocator.solve_us"] = float64(st.solveDur) / 1e3
	measuredLayerMetrics(st, rd, t, p.measure, layer)
	tenantMetrics(st, t, chk.untypedRefusals.Load(), layer)
	if err := routerMetrics(st, layer); err != nil {
		return nil, err
	}

	tr := &tracer{}
	replay := &loadRun{st: st, in: in.clip(p.warm + p.replay), checker: chk, tr: tr, warm: p.warm, measure: p.replay}
	rrd, err := replay.run()
	if err != nil {
		return nil, err
	}
	if rt := tallyOf(rrd.samples); rt.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d replayed requests failed", w.name, rt.failed, rt.attempted)
	}
	replayP50 := quantile(sortedCopy(okLatencies(w, rrd)), 0.5)
	untracedP50 := quantile(sortedCopy(okLatencies(w, rd)), 0.5)
	layer["trace.overhead_share"] = (replayP50 - untracedP50) / untracedP50

	if err := driveLayers(st, in, tr, replay.start, p.drive, layer); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := expect(layersAddUp(w, layer)); err != nil {
		return nil, err
	}
	if res.TraceFile, err = tr.write(outDir, w.name, res.Envelope); err != nil {
		return nil, err
	}
	res.PerLayer = layer
	return res, nil
}

// layersAddUp checks the traced decomposition: on a closed loop the leaves
// must add up to the socket-level p50 within 10%, at TimeScale 1 queue +
// exec must explain at least 95% of the client's latency.
func layersAddUp(w *workload, layer map[string]float64) error {
	if !w.open() {
		if s := layer["trace.layer_sum_share"]; s < 0.9 || s > 1.1 {
			return fmt.Errorf("%s: traced layers add up to %.3f of the socket-level p50, outside 0.9..1.1", w.name, s)
		}
	} else if s := layer["cluster.queue_exec_share"]; s < 0.95 {
		return fmt.Errorf("%s: queue + exec explain only %.3f of the client's p50, want >= 0.95", w.name, s)
	}
	return nil
}

func okLatencies(w *workload, rd *runData) []float64 {
	var out []float64
	for i := range rd.samples {
		if s := &rd.samples[i]; s.outcome == ok && judged(w, s) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// routerMetrics reads the router's own /metrics: requests per shard
// (imbalance = max/mean) and reroutes. Every request the load sent must
// have been counted against a shard.
func routerMetrics(st *stack, m map[string]float64) error {
	if st.rt == nil {
		return nil
	}
	resp, err := http.Get("http://" + st.rtHTTPLn.Addr().String() + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var perShard []float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, found := strings.Cut(sc.Text(), " ")
		if !found || !strings.HasPrefix(name, "arlo_router_requests_total{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("router /metrics: %q: %w", sc.Text(), err)
		}
		perShard = append(perShard, v)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	var sum, max float64
	for _, v := range perShard {
		sum += v
		if v > max {
			max = v
		}
	}
	if len(perShard) != len(st.shards) || sum == 0 {
		return fmt.Errorf("router /metrics: per-shard request counters %v for %d shards", perShard, len(st.shards))
	}
	m["router.imbalance"] = max / (sum / float64(len(perShard)))
	m["router.reroutes"] = float64(st.rt.Reroutes())
	return nil
}
