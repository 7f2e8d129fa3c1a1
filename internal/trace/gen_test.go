package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

func TestGeometricOutputsMeanAndCap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GeometricOutputs{Mean: 16, Max: 128}
	sum, n := 0, 20000
	for i := 0; i < n; i++ {
		v := g.SampleOutput(rng, 0)
		if v < 1 {
			t.Fatalf("sample %d < 1", v)
		}
		if v > 128 {
			t.Fatalf("sample %d exceeds cap 128", v)
		}
		sum += v
	}
	mean := float64(sum) / float64(n)
	// The cap shaves a little off the uncapped mean of 16.
	if mean < 13 || mean > 19 {
		t.Errorf("empirical mean = %.2f, want ~16", mean)
	}
}

func TestGeometricOutputsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := GeometricOutputs{Mean: 0.5} // below 1: clamped to deterministic 1
	for i := 0; i < 100; i++ {
		if v := g.SampleOutput(rng, 0); v != 1 {
			t.Fatalf("mean<1 should always sample 1, got %d", v)
		}
	}
}

func TestGenerativeTraceDeterministicAndBudgeted(t *testing.T) {
	cfg := Config{Seed: 42, Duration: 2 * time.Second, Arrivals: Poisson{Rate: 50},
		Lengths: TwitterRecalibrated(42), Outputs: GeometricOutputs{Mean: 16, Max: 256}}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) == 0 {
		t.Fatal("empty generative trace")
	}
	if !a.Generative() {
		t.Fatal("Generative() false for a trace with an output sampler")
	}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra.OutTokens != rb.OutTokens || ra.At != rb.At || ra.Length != rb.Length {
			t.Fatalf("same seed diverged at request %d: %+v vs %+v", i, ra, rb)
		}
		if ra.OutTokens < 1 || ra.OutTokens > 256 {
			t.Fatalf("request %d out tokens %d outside [1, 256]", i, ra.OutTokens)
		}
	}
	if m := a.MeanOutTokens(); m < 8 || m > 32 {
		t.Errorf("mean out tokens = %.2f, want ~16", m)
	}
}

func TestGenerativeCSVRoundTrip(t *testing.T) {
	tr, err := Generate(Config{Seed: 7, Duration: time.Second, Arrivals: Poisson{Rate: 100},
		Lengths: TwitterRecalibrated(7), Outputs: GeometricOutputs{Mean: 8, Max: 64}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("id,at_ms,length,out_tokens\n")) {
		t.Fatalf("generative trace wrote header %q", bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[0])
	}
	back, err := ReadCSV(&buf, tr.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(tr.Requests) {
		t.Fatalf("round trip changed count %d -> %d", len(tr.Requests), len(back.Requests))
	}
	for i := range back.Requests {
		if back.Requests[i].OutTokens != tr.Requests[i].OutTokens {
			t.Fatalf("row %d out tokens %d -> %d", i, tr.Requests[i].OutTokens, back.Requests[i].OutTokens)
		}
	}
}

// An encoder trace (no Outputs sampler) must keep writing the exact
// 3-column format older tooling parses.
func TestEncoderCSVUnchanged(t *testing.T) {
	tr, err := Generate(Stable(3, 100, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Generative() {
		t.Fatal("encoder trace claims to be generative")
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("id,at_ms,length\n")) {
		t.Fatalf("encoder trace wrote header %q", bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[0])
	}
	if bytes.Contains(buf.Bytes(), []byte("out_tokens")) {
		t.Fatal("encoder trace grew an out_tokens column")
	}
}
