package trace

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := Generate(Config{Duration: time.Minute, Arrivals: Poisson{Rate: 1}}); err == nil {
		t.Error("missing length sampler should fail")
	}
	if _, err := Generate(Config{Duration: time.Minute, Lengths: TwitterLengths(1)}); err == nil {
		t.Error("missing arrival process should fail")
	}
	if _, err := Generate(Config{Duration: -time.Second, Arrivals: Poisson{Rate: 1}, Lengths: TwitterLengths(1)}); err == nil {
		t.Error("negative duration should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Stable(42, 100, 30*time.Second)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("non-deterministic request count: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
}

func TestGenerateSortedAndInWindow(t *testing.T) {
	tr, err := Generate(Bursty(7, 200, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("bursty trace produced no requests")
	}
	for i, r := range tr.Requests {
		if r.At < 0 || r.At >= tr.Duration {
			t.Fatalf("request %d arrival %v outside [0, %v)", i, r.At, tr.Duration)
		}
		if i > 0 && r.At < tr.Requests[i-1].At {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		if r.ID != int64(i) {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if r.Length < 1 || r.Length > 512 {
			t.Fatalf("request %d length %d outside [1, 512]", i, r.Length)
		}
	}
}

func TestPoissonRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ats := Poisson{Rate: 500}.Arrivals(rng, 2*time.Minute)
	got := float64(len(ats)) / 120
	if math.Abs(got-500)/500 > 0.05 {
		t.Errorf("Poisson realized rate %.1f req/s, want ~500", got)
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := (Poisson{Rate: 0}).Arrivals(rng, time.Minute); got != nil {
		t.Error("zero rate should produce no arrivals")
	}
	if got := (Poisson{Rate: 10}).Arrivals(rng, 0); got != nil {
		t.Error("zero duration should produce no arrivals")
	}
}

func TestMMPPMeanRate(t *testing.T) {
	m := BurstyAround(1000)
	if math.Abs(m.MeanRate()-1000) > 1e-6 {
		t.Errorf("BurstyAround mean rate = %.3f, want 1000", m.MeanRate())
	}
	rng := rand.New(rand.NewSource(11))
	ats := m.Arrivals(rng, 10*time.Minute)
	got := float64(len(ats)) / 600
	if math.Abs(got-1000)/1000 > 0.10 {
		t.Errorf("MMPP realized rate %.1f req/s, want ~1000 (within 10%%)", got)
	}
	if !sort.SliceIsSorted(ats, func(i, j int) bool { return ats[i] < ats[j] }) {
		t.Error("MMPP arrivals not sorted")
	}
}

func TestMMPPBurstierThanPoisson(t *testing.T) {
	// The variance of per-second counts must be clearly super-Poisson.
	rate := 300.0
	countVariance := func(ats []time.Duration, seconds int) float64 {
		counts := make([]float64, seconds)
		for _, at := range ats {
			s := int(at / time.Second)
			if s < seconds {
				counts[s]++
			}
		}
		var mean, ss float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(seconds)
		for _, c := range counts {
			ss += (c - mean) * (c - mean)
		}
		return ss / float64(seconds)
	}
	rng := rand.New(rand.NewSource(5))
	dur := 5 * time.Minute
	pVar := countVariance(Poisson{Rate: rate}.Arrivals(rng, dur), 300)
	mVar := countVariance(BurstyAround(rate).Arrivals(rng, dur), 300)
	if mVar < 3*pVar {
		t.Errorf("MMPP per-second count variance %.1f should be >= 3x Poisson's %.1f", mVar, pVar)
	}
}

func TestTwitterLengthCalibration(t *testing.T) {
	tr, err := Generate(Config{
		Seed:     9,
		Duration: 10 * time.Minute,
		Arrivals: Poisson{Rate: 200},
		Lengths:  TwitterLengths(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	// Paper (Fig. 1a): median 21, p98 ~72 at the 10-minute scale.
	if st.Median < 18 || st.Median > 24 {
		t.Errorf("10-min median length = %d, want ~21", st.Median)
	}
	if st.P98 < 60 || st.P98 > 85 {
		t.Errorf("10-min p98 length = %d, want ~72", st.P98)
	}
	if st.Max > 125 {
		t.Errorf("max length = %d, want <= 125", st.Max)
	}
}

func TestShortWindowsNarrowerThanLong(t *testing.T) {
	// Fig. 1: the p98 over 10-second clips (~58) is below the 10-minute
	// p98 (~72) because the distribution drifts between regimes.
	tr, err := Generate(Config{
		Seed:     13,
		Duration: 10 * time.Minute,
		Arrivals: Poisson{Rate: 300},
		Lengths:  TwitterLengths(13),
	})
	if err != nil {
		t.Fatal(err)
	}
	longP98 := tr.Stats().P98
	var shortSum, shortN float64
	for m := 0; m < 10; m++ {
		from := time.Duration(m) * time.Minute
		clip := tr.Clip(from, from+10*time.Second)
		if clip.Stats().Count == 0 {
			continue
		}
		shortSum += float64(clip.Stats().P98)
		shortN++
	}
	avgShort := shortSum / shortN
	if avgShort >= float64(longP98) {
		t.Errorf("mean 10-s p98 (%.1f) should be below 10-min p98 (%d)", avgShort, longP98)
	}
}

func TestRecalibratedSpans512(t *testing.T) {
	tr, err := Generate(Stable(21, 400, 5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Max < 450 {
		t.Errorf("recalibrated max = %d, want close to 512", st.Max)
	}
	if st.Median < 70 || st.Median > 105 {
		t.Errorf("recalibrated median = %d, want ~86 (21 * 512/125)", st.Median)
	}
}

func TestClip(t *testing.T) {
	tr := &Trace{
		Requests: []Request{
			{ID: 0, At: 0, Length: 5},
			{ID: 1, At: 10 * time.Second, Length: 6},
			{ID: 2, At: 20 * time.Second, Length: 7},
			{ID: 3, At: 30 * time.Second, Length: 8},
		},
		Duration: 40 * time.Second,
	}
	c := tr.Clip(10*time.Second, 30*time.Second)
	if len(c.Requests) != 2 {
		t.Fatalf("clip has %d requests, want 2", len(c.Requests))
	}
	if c.Requests[0].At != 0 || c.Requests[1].At != 10*time.Second {
		t.Errorf("clip not rebased: %v, %v", c.Requests[0].At, c.Requests[1].At)
	}
	if c.Duration != 20*time.Second {
		t.Errorf("clip duration = %v, want 20s", c.Duration)
	}
	// Degenerate clips.
	if got := tr.Clip(35*time.Second, 35*time.Second); len(got.Requests) != 0 {
		t.Error("empty window should produce no requests")
	}
	if got := tr.Clip(-time.Second, time.Hour); len(got.Requests) != 4 {
		t.Error("over-wide clip should include all requests")
	}
}

func TestBinCounts(t *testing.T) {
	uppers := []int{64, 128, 192}
	lengths := []int{1, 64, 65, 128, 129, 192, 500}
	got := BinCounts(lengths, uppers)
	want := []int{2, 2, 3} // 500 overflows into the last bin
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BinCounts = %v, want %v", got, want)
		}
	}
	if got := BinCounts(lengths, nil); len(got) != 0 {
		t.Error("no bins should give empty counts")
	}
}

func TestBinCountsConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		uppers := []int{64, 128, 256, 512}
		lengths := make([]int, len(raw))
		for i, v := range raw {
			lengths[i] = 1 + int(v)%600
		}
		total := 0
		for _, c := range BinCounts(lengths, uppers) {
			total += c
		}
		return total == len(lengths)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBinDemand(t *testing.T) {
	tr := &Trace{
		Requests: []Request{
			{At: 0, Length: 10},
			{At: time.Second, Length: 100},
			{At: 2 * time.Second, Length: 10},
			{At: 3 * time.Second, Length: 400},
		},
		Duration: 4 * time.Second,
	}
	// 4 requests over 4 seconds; SLO window 1s => demand per window.
	q := tr.BinDemand([]int{64, 128, 512}, time.Second)
	if q[0] != 0.5 || q[1] != 0.25 || q[2] != 0.25 {
		t.Errorf("BinDemand = %v, want [0.5 0.25 0.25]", q)
	}
	zero := tr.BinDemand([]int{64}, 0)
	if zero[0] != 0 {
		t.Error("zero SLO window should give zero demand")
	}
}

// TestPerWindowPinsBinDemand pins the one demand estimate bit for bit
// against the formula BinDemand, the simulator and the controller each
// wrote before they shared it: counts / (span/window), times the
// controller's time scale.
func TestPerWindowPinsBinDemand(t *testing.T) {
	tr, err := Generate(Stable(3, 700, 9*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	uppers := []int{64, 128, 192, 256, 320, 384, 448, 512}
	counts := BinCounts(tr.Lengths(), uppers)
	wide := make([]int64, len(counts))
	for i, c := range counts {
		wide[i] = int64(c)
	}
	for _, slo := range []time.Duration{7 * time.Millisecond, 150 * time.Millisecond, 450 * time.Millisecond} {
		windows := float64(tr.Duration) / float64(slo)
		q := tr.BinDemand(uppers, slo)
		scaled := PerWindow(wide, tr.Duration, slo, 0.02)
		for i, c := range counts {
			if want := float64(c) / windows; math.Float64bits(q[i]) != math.Float64bits(want) {
				t.Errorf("slo %v bin %d: BinDemand %v, want %v", slo, i, q[i], want)
			}
			if want := float64(c) / windows * 0.02; math.Float64bits(scaled[i]) != math.Float64bits(want) {
				t.Errorf("slo %v bin %d: scaled %v, want %v", slo, i, scaled[i], want)
			}
		}
	}
}

func TestLengthCDF(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Length: 5}, {Length: 5}, {Length: 10}, {Length: 20},
	}, Duration: time.Second}
	cdf := tr.LengthCDF()
	if len(cdf) != 3 {
		t.Fatalf("CDF has %d distinct points, want 3", len(cdf))
	}
	if cdf[0].Length != 5 || cdf[0].F != 0.5 {
		t.Errorf("first point = %+v, want {5 0.5}", cdf[0])
	}
	if cdf[2].Length != 20 || cdf[2].F != 1.0 {
		t.Errorf("last point = %+v, want {20 1}", cdf[2])
	}
	empty := &Trace{Duration: time.Second}
	if empty.LengthCDF() != nil {
		t.Error("empty trace should have nil CDF")
	}
}

func TestStatsOfEmpty(t *testing.T) {
	if st := StatsOf(nil); st.Count != 0 || st.Median != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestMeanRate(t *testing.T) {
	tr, err := Generate(Stable(3, 100, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.MeanRate(); math.Abs(r-100) > 15 {
		t.Errorf("mean rate = %.1f, want ~100", r)
	}
	empty := &Trace{}
	if empty.MeanRate() != 0 {
		t.Error("zero-duration trace should have zero rate")
	}
}

func TestLogNormalClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := LogNormalLengths{Mu: math.Log(21), Sigma: 3.0, Min: 4, Max: 50}
	for i := 0; i < 2000; i++ {
		l := d.SampleLength(rng, 0)
		if l < 4 || l > 50 {
			t.Fatalf("sample %d outside clamp [4, 50]", l)
		}
	}
	// Min below 1 is corrected to 1.
	d2 := LogNormalLengths{Mu: -10, Sigma: 0.1, Min: 0, Max: 50}
	if l := d2.SampleLength(rng, 0); l < 1 {
		t.Errorf("length %d below 1", l)
	}
}

func TestMinuteNoiseDeterministicAndBounded(t *testing.T) {
	for m := int64(0); m < 100; m++ {
		v := minuteNoise(77, m)
		if v < -1 || v >= 1 {
			t.Fatalf("minuteNoise out of [-1,1): %v", v)
		}
		if v != minuteNoise(77, m) {
			t.Fatal("minuteNoise not deterministic")
		}
	}
	if minuteNoise(1, 5) == minuteNoise(2, 5) {
		t.Error("different seeds should decorrelate noise")
	}
}

func TestMixtureLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := MixtureLengths{
		Components: []LengthSampler{
			LogNormalLengths{Mu: math.Log(20), Sigma: 0.1, Min: 1, Max: 64},
			LogNormalLengths{Mu: math.Log(400), Sigma: 0.05, Min: 300, Max: 512},
		},
		Weights: []float64{0.8, 0.2},
	}
	short, long := 0, 0
	const n = 5000
	for i := 0; i < n; i++ {
		l := m.SampleLength(rng, 0)
		switch {
		case l <= 64:
			short++
		case l >= 300:
			long++
		default:
			t.Fatalf("sample %d falls between the components", l)
		}
	}
	frac := float64(long) / n
	if math.Abs(frac-0.2) > 0.03 {
		t.Errorf("long component fraction = %.3f, want ~0.20", frac)
	}
}

func TestMixtureLengthsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	empty := MixtureLengths{}
	if got := empty.SampleLength(rng, 0); got != 1 {
		t.Errorf("empty mixture should return 1, got %d", got)
	}
	// Mismatched weights fall back to the first component.
	m := MixtureLengths{
		Components: []LengthSampler{LogNormalLengths{Mu: math.Log(10), Sigma: 0.01, Min: 1, Max: 20}},
		Weights:    []float64{1, 2},
	}
	if got := m.SampleLength(rng, 0); got < 1 || got > 20 {
		t.Errorf("fallback sample %d outside the first component's range", got)
	}
	// Zero total weight likewise.
	z := MixtureLengths{
		Components: []LengthSampler{LogNormalLengths{Mu: math.Log(10), Sigma: 0.01, Min: 1, Max: 20}},
		Weights:    []float64{0},
	}
	if got := z.SampleLength(rng, 0); got < 1 || got > 20 {
		t.Errorf("zero-weight sample %d outside range", got)
	}
}
