package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"arlo/internal/serve"
	"arlo/internal/tokenizer"
)

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(v, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile must be 0")
	}
}

// One stalled slice must not move the reported tail; pooled, it would.
func TestSliceQuantileIgnoresOneStalledSlice(t *testing.T) {
	var perSlice [][]float64
	var pooled []float64
	for s := 0; s < openSlices; s++ {
		var vals []float64
		for i := 0; i < 1000; i++ {
			v := 1 + float64(i)/1000 // 1..2 ms, p98 ~1.98
			if s == 2 && i >= 800 {
				v = 40 // a noisy-neighbour stall hits a fifth of one slice
			}
			vals = append(vals, v)
		}
		perSlice = append(perSlice, vals)
		pooled = append(pooled, vals...)
	}
	got, n := sliceQuantile(perSlice, 0.98, openQuiet)
	if got < 1.97 || got > 1.99 {
		t.Errorf("slice-median p98 = %v, want ~1.98", got)
	}
	if n != 1000 {
		t.Errorf("min samples per slice = %d, want 1000", n)
	}
	if p := quantile(sortedCopy(pooled), 0.98); p < 2.5 {
		t.Errorf("pooled p98 = %v: the test's stall is too small to show the difference", p)
	}
	if _, n := sliceQuantile([][]float64{{1, 2}, nil}, 0.5, openQuiet); n != 0 {
		t.Errorf("an empty slice must report 0 samples, got %d", n)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, StartNS: 100, EndNS: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{StartNS: 110, EndNS: 120}, {StartNS: 150, EndNS: 170}}, 70},
		{"overlapping counted once", []span{{StartNS: 110, EndNS: 150}, {StartNS: 130, EndNS: 170}}, 40},
		{"nested counted once", []span{{StartNS: 110, EndNS: 190}, {StartNS: 120, EndNS: 130}}, 20},
		{"clipped to the parent", []span{{StartNS: 50, EndNS: 120}, {StartNS: 190, EndNS: 400}}, 70},
		{"outside the parent", []span{{StartNS: 0, EndNS: 50}, {StartNS: 300, EndNS: 400}}, 100},
		{"covering", []span{{StartNS: 0, EndNS: 400}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesByName(t *testing.T) {
	tr := &tracer{}
	root := tr.add(0, 7, "request", 0, 100)
	tr.add(root, 7, "loadgen.send_wait", 0, 10)
	sock := tr.add(root, 7, "socket", 10, 100)
	tr.add(sock, 7, "queue", 10, 30)
	tr.add(sock, 7, "exec", 30, 90)
	got := selfTimes(tr.spans)
	want := map[string][]float64{
		"request": {0}, "loadgen.send_wait": {10}, "socket": {10}, "queue": {20}, "exec": {60},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTallyConservation(t *testing.T) {
	samples := []sample{{outcome: ok}, {outcome: ok}, {outcome: refused}, {outcome: failed}}
	tl := tallyOf(samples)
	if tl != (tally{attempted: 4, ok: 2, refused: 1, failed: 1}) {
		t.Fatalf("tally %+v", tl)
	}
	if err := tl.conserved(&stack{}); err != nil {
		t.Errorf("balanced ledger rejected: %v", err)
	}
	tl.ok-- // a reply that was neither answered, refused nor failed
	if err := tl.conserved(&stack{}); err == nil {
		t.Error("unbalanced ledger accepted")
	}
}

func TestCheckerFlagsWrongReplies(t *testing.T) {
	w := findWorkload("generate_continuous")
	in := &inputs{pool: []pooledText{{text: "the", length: 3}}}
	rq := request{pool: 0, budget: 5}
	good := reply{seqLen: 3, label: "neutral", outTokens: 5}
	chk := newChecker(in)
	if got := chk.check(w, rq, &good, nil); got != ok {
		t.Fatalf("correct reply judged %v", got)
	}
	for name, bad := range map[string]reply{
		"sequence_length": {seqLen: 4, label: "neutral", outTokens: 5},
		"label flipped":   {seqLen: 3, label: "positive", outTokens: 5},
		"unknown label":   {seqLen: 3, label: "", outTokens: 5},
		"output_tokens":   {seqLen: 3, label: "neutral", outTokens: 4},
	} {
		bad := bad
		if got := chk.check(w, rq, &bad, nil); got != failed {
			t.Errorf("%s: judged %v, want failed", name, got)
		}
	}

	tw := findWorkload("tenants_batched")
	typed := &serve.APIError{Status: 429, Code: serve.CodeRateLimited, RetryAfter: time.Millisecond}
	noisy, victim := request{stream: 1}, request{stream: 0}
	if got := chk.check(tw, noisy, &reply{}, typed); got != refused {
		t.Errorf("typed refusal of noisy judged %v", got)
	}
	if got := chk.check(tw, victim, &reply{}, typed); got != failed {
		t.Errorf("refusal of victim judged %v, want failed", got)
	}
	noHint := &serve.APIError{Status: 429, Code: serve.CodeRateLimited}
	if got := chk.check(tw, noisy, &reply{}, noHint); got != failed || chk.untypedRefusals.Load() != 1 {
		t.Errorf("refusal without retry-after judged %v (untyped %d)", got, chk.untypedRefusals.Load())
	}
	if got := chk.check(tw, noisy, &reply{}, errors.New("boom")); got != failed || chk.untypedRefusals.Load() != 2 {
		t.Errorf("untyped error judged %v (untyped %d)", got, chk.untypedRefusals.Load())
	}
}

func TestInputsAreSeededAndExact(t *testing.T) {
	tok := tokenizer.New()
	w := findWorkload("tenants_batched")
	a, err := generateInputs(w, 3, tok, time.Second, 6*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateInputs(w, 3, tok, time.Second, 6*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	c, err := generateInputs(w, 4, tok, time.Second, 6*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.pool, c.pool) || reflect.DeepEqual(a.measured, c.measured) {
		t.Error("another seed gave the same inputs")
	}
	for i, p := range a.pool {
		if got := tok.SequenceLength(p.text); got != p.length || got < 3 || got > maxLength {
			t.Fatalf("pool[%d]: %d tokens, recorded %d", i, got, p.length)
		}
	}
	// Every seed offers exactly rate x span requests, inside the window.
	for si, s := range w.streams {
		if got, want := len(a.measured[si]), int(s.rate*6); got != want {
			t.Errorf("stream %d: %d measured requests, want %d", si, got, want)
		}
		if len(c.measured[si]) != len(a.measured[si]) {
			t.Errorf("stream %d: seeds offer different loads", si)
		}
		for i, rq := range a.measured[si] {
			if rq.due < time.Second || rq.due >= 7*time.Second {
				t.Fatalf("stream %d request %d due at %v, outside the measured window", si, i, rq.due)
			}
			if i > 0 && rq.due < a.measured[si][i-1].due {
				t.Fatalf("stream %d schedule not sorted at %d", si, i)
			}
		}
	}
	if got := a.clip(3 * time.Second); len(got.measured[0]) >= len(a.measured[0]) || len(got.measured[0]) == 0 {
		t.Errorf("clip kept %d of %d requests", len(got.measured[0]), len(a.measured[0]))
	}
}

func TestWithinAndDerivedTTFT(t *testing.T) {
	enc, gen := findWorkload("encoder_bursty"), findWorkload("generate_continuous")
	if !within(enc, &sample{lat: slo}) || within(enc, &sample{lat: slo + 1}) {
		t.Error("encoder limit is lat <= SLO")
	}
	if within(enc, &sample{lat: time.Millisecond, outcome: refused}) {
		t.Error("a refused request misses every limit")
	}
	// Round trip 30 ms, server says 28 ms total of which TTFT 8 ms: the
	// client saw its first token at 30 - (28 - 8) = 10 ms.
	s := sample{lat: 30 * time.Millisecond, srvMS: 28, ttftMS: 8, tpotMS: 2}
	if got := clientTTFT(&s); got < 9.999 || got > 10.001 {
		t.Errorf("derived TTFT %v ms, want 10", got)
	}
	if !within(gen, &s) {
		t.Error("TTFT 10 ms and TPOT 2 ms are within the limits")
	}
	s.tpotMS = 4.5
	if within(gen, &s) {
		t.Error("TPOT 4.5 ms is over the limit")
	}
}

// BENCHMARK.json is the output of -spec; the contract's limits hold.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from `-spec`; regenerate it with `bash benchmark/run.sh -spec > BENCHMARK.json`")
	}
}

func TestSpecWithinContractLimits(t *testing.T) {
	s := spec()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v outside the contract", m)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
}
