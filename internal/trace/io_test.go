package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	orig, err := Generate(Stable(5, 150, 5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, orig.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != len(orig.Requests) {
		t.Fatalf("round trip lost requests: %d vs %d", len(got.Requests), len(orig.Requests))
	}
	for i := range orig.Requests {
		o, g := orig.Requests[i], got.Requests[i]
		if o.ID != g.ID || o.Length != g.Length {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, o, g)
		}
		// Arrival times survive at millisecond-fraction precision.
		if diff := o.At - g.At; diff < -time.Microsecond || diff > time.Microsecond {
			t.Fatalf("request %d arrival drifted by %v", i, diff)
		}
	}
	if got.Duration != orig.Duration {
		t.Errorf("duration = %v, want %v", got.Duration, orig.Duration)
	}
}

func TestReadCSVInferredDuration(t *testing.T) {
	in := "id,at_ms,length\n0,0.000,5\n1,1500.000,9\n"
	tr, err := ReadCSV(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration <= 1500*time.Millisecond {
		t.Errorf("inferred duration %v must cover the last arrival", tr.Duration)
	}
	if len(tr.Requests) != 2 || tr.Requests[1].Length != 9 {
		t.Errorf("parsed %+v", tr.Requests)
	}
}

// TestReadCSVRoundsToMicrosecond pins the format's unit: an arrival is
// read to the nearest microsecond, the precision WriteCSV prints, so a
// parsed trace writes back byte for byte and reads back unchanged.
func TestReadCSVRoundsToMicrosecond(t *testing.T) {
	in := "id,at_ms,length\n0,1.001,5\n1,2.0004,5\n2,2.0006,5\n"
	tr, err := ReadCSV(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{1001 * time.Microsecond, 2000 * time.Microsecond, 2001 * time.Microsecond}
	for i, r := range tr.Requests {
		if r.At != want[i] {
			t.Errorf("row %d: arrival %d ns, want %d ns", i, r.At, want[i])
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "id,at_ms,length\n0,1.001,5\n1,2.000,5\n2,2.001,5\n"; got != want {
		t.Errorf("written %q, want %q", got, want)
	}
	back, err := ReadCSV(&buf, tr.Duration)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back.Requests {
		if back.Requests[i] != tr.Requests[i] {
			t.Errorf("row %d: %+v read back as %+v", i, tr.Requests[i], back.Requests[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		dur  time.Duration
	}{
		{"empty", "", 0},
		{"bad id", "x,0.0,5\n", 0},
		{"bad arrival", "0,abc,5\n", 0},
		{"negative arrival", "0,-5.0,5\n", 0},
		{"NaN arrival", "0,nan,5\n", 0},
		{"arrival past the duration range", "0,1e300,5\n", 0},
		{"bad length", "0,0.0,zero\n", 0},
		{"zero length", "0,0.0,0\n", 0},
		{"unsorted", "0,10.0,5\n1,5.0,5\n", 0},
		{"short duration", "0,100.0,5\n", 50 * time.Millisecond},
		{"wrong fields", "1,2\n", 0},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.in), tc.dur); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestEmpiricalLengths(t *testing.T) {
	if _, err := NewEmpiricalLengths(nil); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := NewEmpiricalLengths([]int{5, 0}); err == nil {
		t.Error("non-positive sample should fail")
	}
	obs := []int{10, 10, 10, 10, 50, 50, 200, 400}
	e, err := NewEmpiricalLengths(obs)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling reproduces the empirical frequencies.
	rng := rand.New(rand.NewSource(4))
	count10 := 0
	const n = 8000
	for i := 0; i < n; i++ {
		l := e.SampleLength(rng, 0)
		found := false
		for _, v := range obs {
			if v == l {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("sampled %d, not in the observed support", l)
		}
		if l == 10 {
			count10++
		}
	}
	frac := float64(count10) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("P(10) = %.3f, want ~0.5", frac)
	}
}

func TestEmpiricalReplayEndToEnd(t *testing.T) {
	// Record one trace's lengths, replay them at a different rate.
	src, err := Generate(Stable(9, 200, 3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	emp, err := NewEmpiricalLengths(src.Lengths())
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Generate(Config{
		Seed:     10,
		Duration: 3 * time.Second,
		Arrivals: Poisson{Rate: 800},
		Lengths:  emp,
	})
	if err != nil {
		t.Fatal(err)
	}
	srcStats, repStats := src.Stats(), replay.Stats()
	if repStats.Count < 3*srcStats.Count {
		t.Errorf("replay at 4x rate should have ~4x requests: %d vs %d", repStats.Count, srcStats.Count)
	}
	if diff := repStats.Median - srcStats.Median; diff < -15 || diff > 15 {
		t.Errorf("replayed median %d too far from source %d", repStats.Median, srcStats.Median)
	}
}
