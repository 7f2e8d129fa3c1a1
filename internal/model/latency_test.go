package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBertBaseAnchors(t *testing.T) {
	m := BertBase()
	// Paper anchors: lat(512) = 4.86 ms, lat(512)/lat(64) = 4.22x.
	lat512 := m.StaticLatency(512)
	lat64 := m.StaticLatency(64)
	if got := lat512.Seconds() * 1000; math.Abs(got-4.86) > 0.05 {
		t.Errorf("BERT-Base lat(512) = %.3f ms, want ~4.86 ms", got)
	}
	ratio := float64(lat512) / float64(lat64)
	if math.Abs(ratio-4.22) > 0.1 {
		t.Errorf("BERT-Base lat(512)/lat(64) = %.2f, want ~4.22", ratio)
	}
}

func TestBertLargeAnchors(t *testing.T) {
	m := BertLarge()
	ratio := float64(m.StaticLatency(512)) / float64(m.StaticLatency(64))
	if math.Abs(ratio-5.25) > 0.1 {
		t.Errorf("BERT-Large lat(512)/lat(64) = %.2f, want ~5.25", ratio)
	}
}

func TestPaddingInflationMatchesPaper(t *testing.T) {
	// A length-20 request served by a 512 runtime takes 4.28x its actual
	// computation time (paper section 2.2).
	m := BertBase()
	infl := float64(m.StaticLatency(512)) / float64(m.IdealStaticLatency(20))
	if math.Abs(infl-4.22) > 0.15 { // length 20 rounds to the 64 tile
		t.Errorf("padding inflation for len 20 on 512 = %.2f, want ~4.2-4.3", infl)
	}
}

func TestStaticLatencyStaircase(t *testing.T) {
	m := BertBase()
	// Latency is flat within a tile step...
	if m.IdealStaticLatency(65) != m.IdealStaticLatency(128) {
		t.Error("latency should be flat within the 64..128 tile band")
	}
	// ...and jumps across steps.
	if m.IdealStaticLatency(128) >= m.IdealStaticLatency(129) {
		t.Error("latency should jump at the 128->129 boundary")
	}
}

func TestStaticLatencyIgnoresRequestLength(t *testing.T) {
	m := BertBase()
	// A static runtime pads: every request on the 512 runtime costs its
	// compiled shape, never less than the request's own smallest runtime.
	padded := m.StaticLatency(512)
	for _, reqLen := range []int{1, 20, 64, 300, 512} {
		if ideal := m.IdealStaticLatency(reqLen); ideal > padded || (reqLen == 512) != (ideal == padded) {
			t.Errorf("request length %d: ideal static latency %v against the padded %v", reqLen, ideal, padded)
		}
	}
}

func TestDynamicInflationBand(t *testing.T) {
	m := BertBase()
	for s := 1; s <= 512; s += 13 {
		infl := m.DynamicInflation(s)
		if infl < 1.22-1e-9 || infl > 3.56+1e-9 {
			t.Fatalf("dynamic inflation %.3f at len %d outside the paper's 1.22-3.56 band", infl, s)
		}
	}
	if m.DynamicInflation(1) <= m.DynamicInflation(512) {
		t.Error("inflation should be worst for short sequences")
	}
	// Clamping outside the valid range.
	if m.DynamicInflation(-5) != m.DynamicInflation(0) {
		t.Error("negative lengths should clamp to 0")
	}
	if m.DynamicInflation(1000) != m.DynamicInflation(512) {
		t.Error("over-long lengths should clamp to MaxLength")
	}
}

func TestDollyAverageInflation(t *testing.T) {
	m := Dolly()
	sum := 0.0
	n := 0
	for s := 32; s <= 512; s += 32 {
		sum += m.DynamicInflation(s)
		n++
	}
	avg := sum / float64(n)
	if math.Abs(avg-2.86) > 0.15 {
		t.Errorf("Dolly average dynamic inflation = %.2f, want ~2.86 (paper Fig. 2c)", avg)
	}
}

func TestDynamicBeatsFullPaddingForShortRequests(t *testing.T) {
	// The whole premise of DT vs ST: a short request is faster on a
	// dynamic runtime than padded to 512 on a static one, but slower
	// than on its ideal static runtime.
	for _, m := range []*LatencyModel{BertBase(), BertLarge()} {
		short := 21 // Twitter median
		dyn := m.DynamicLatency(short)
		padded := m.StaticLatency(512)
		ideal := m.IdealStaticLatency(short)
		if dyn >= padded {
			t.Errorf("%s: dynamic (%v) should beat fully padded (%v) for len %d", m.Arch().Name, dyn, padded, short)
		}
		if dyn <= ideal {
			t.Errorf("%s: dynamic (%v) should lose to ideal static (%v) for len %d", m.Arch().Name, dyn, ideal, short)
		}
	}
}

func TestLatencyMonotoneInMaxLength(t *testing.T) {
	m := BertLarge()
	f := func(a, b int) bool {
		a = 1 + abs(a)%512
		b = 1 + abs(b)%512
		if a > b {
			a, b = b, a
		}
		return m.StaticLatency(a) <= m.StaticLatency(b) && m.DynamicLatency(a) <= m.DynamicLatency(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCalibrateRejectsBadAnchors(t *testing.T) {
	cases := []struct {
		name            string
		latTile, latMax time.Duration
		inflS, inflL    float64
	}{
		{"zero tile latency", 0, time.Millisecond, 1.2, 1.2},
		{"max not above tile", 2 * time.Millisecond, time.Millisecond, 1.2, 1.2},
		{"inflation below 1", time.Millisecond, 5 * time.Millisecond, 0.5, 1.2},
		{"superlinear anchors", time.Microsecond, 100 * time.Millisecond, 1.2, 1.2},
	}
	for _, tc := range cases {
		if _, err := Calibrate(BertBaseArch, tc.latTile, tc.latMax, tc.inflS, tc.inflL); err == nil {
			t.Errorf("%s: expected calibration error", tc.name)
		}
	}
	if _, err := Calibrate(Arch{}, time.Millisecond, 5*time.Millisecond, 1.2, 1.2); err == nil {
		t.Error("invalid arch should fail calibration")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"bert-base", "bert-large", "dolly"} {
		m := ByName(name)
		if m == nil {
			t.Fatalf("ByName(%q) returned nil", name)
		}
		if m.Arch().Name != name {
			t.Errorf("ByName(%q) returned arch %q", name, m.Arch().Name)
		}
	}
	if ByName("gpt-17") != nil {
		t.Error("unknown name should return nil")
	}
}

func TestSLOPresets(t *testing.T) {
	if slo, ok := SLO(BertBaseArch); !ok || slo != 150*time.Millisecond {
		t.Errorf("BERT-Base SLO = %v, %v; want 150ms, true", slo, ok)
	}
	if slo, ok := SLO(BertLargeArch); !ok || slo != 450*time.Millisecond {
		t.Errorf("BERT-Large SLO = %v, %v; want 450ms, true", slo, ok)
	}
	if _, ok := SLO(DollyArch); ok {
		t.Error("Dolly has no serving SLO in the paper")
	}
}

func TestCompilationString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Error("unexpected Compilation names")
	}
	if Compilation(9).String() == "" {
		t.Error("unknown compilation should still print")
	}
}

func abs(x int) int {
	if x < 0 {
		if x == math.MinInt {
			return math.MaxInt
		}
		return -x
	}
	return x
}

func TestShardedValidation(t *testing.T) {
	m := BertLarge()
	if _, err := m.Sharded(0, 0.15); err == nil {
		t.Error("zero shards should fail")
	}
	if _, err := m.Sharded(2, -0.1); err == nil {
		t.Error("negative comm fraction should fail")
	}
	if _, err := m.Sharded(2, 1.0); err == nil {
		t.Error("comm fraction 1 should fail")
	}
}

func TestShardedSpeedup(t *testing.T) {
	m := BertLarge()
	tp2, err := m.Sharded(2, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	tp4, err := m.Sharded(4, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	base := m.StaticLatency(512)
	// Exactly (1 + 0.15*(k-1))/k of the single-GPU latency.
	want2 := time.Duration(float64(base) * 1.15 / 2)
	got2 := tp2.StaticLatency(512)
	if got2 < want2-time.Microsecond || got2 > want2+time.Microsecond {
		t.Errorf("tp2 lat(512) = %v, want %v", got2, want2)
	}
	if !(tp4.StaticLatency(512) < got2 && got2 < base) {
		t.Error("latency should fall with shard count")
	}
	// Sub-linear: 4 GPUs buy less than 4x.
	speedup4 := float64(base) / float64(tp4.StaticLatency(512))
	if speedup4 >= 4 || speedup4 <= 2 {
		t.Errorf("tp4 speedup = %.2f, want in (2, 4)", speedup4)
	}
	// The staircase and span shape survive sharding.
	ratio := float64(tp2.StaticLatency(512)) / float64(tp2.StaticLatency(64))
	origRatio := float64(m.StaticLatency(512)) / float64(m.StaticLatency(64))
	if math.Abs(ratio-origRatio) > 1e-4 { // duration rounding at ns granularity
		t.Errorf("sharding must preserve the length-span ratio: %v vs %v", ratio, origRatio)
	}
	if tp2.Arch().Name != "bert-large-tp2" {
		t.Errorf("sharded arch name = %q", tp2.Arch().Name)
	}
}

func TestShardedK1IsClone(t *testing.T) {
	m := BertBase()
	c, err := m.Sharded(1, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if c.StaticLatency(512) != m.StaticLatency(512) || c.Arch().Name != m.Arch().Name {
		t.Error("k=1 should be an identical clone")
	}
}
