package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidatePresets(t *testing.T) {
	for _, a := range []Arch{BertBaseArch, BertLargeArch, DollyArch} {
		if err := a.Validate(); err != nil {
			t.Errorf("preset %s failed validation: %v", a.Name, err)
		}
	}
}

func TestValidateRejectsBadArch(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Arch)
	}{
		{"empty name", func(a *Arch) { a.Name = "" }},
		{"zero layers", func(a *Arch) { a.Layers = 0 }},
		{"negative hidden", func(a *Arch) { a.Hidden = -1 }},
		{"zero heads", func(a *Arch) { a.Heads = 0 }},
		{"hidden not divisible by heads", func(a *Arch) { a.Heads = 7 }},
		{"zero intermediate", func(a *Arch) { a.Intermediate = 0 }},
		{"zero max length", func(a *Arch) { a.MaxLength = 0 }},
		{"zero tile step", func(a *Arch) { a.TileStep = 0 }},
		{"max length not multiple of tile", func(a *Arch) { a.MaxLength = 500 }},
	}
	for _, tc := range cases {
		a := BertBaseArch
		tc.mut(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: expected validation error, got nil", tc.name)
		}
	}
}

func TestRoundUp(t *testing.T) {
	a := BertBaseArch
	cases := []struct{ in, want int }{
		{-5, 64}, {0, 64}, {1, 64}, {20, 64}, {64, 64},
		{65, 128}, {127, 128}, {128, 128}, {129, 192},
		{511, 512}, {512, 512},
	}
	for _, tc := range cases {
		if got := a.RoundUp(tc.in); got != tc.want {
			t.Errorf("RoundUp(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRoundUpProperties(t *testing.T) {
	a := BertBaseArch
	f := func(n int) bool {
		n %= 2048
		got := a.RoundUp(n)
		// Result is a positive multiple of the tile step and >= n.
		if got%a.TileStep != 0 || got < a.TileStep {
			return false
		}
		if n > 0 && got < n {
			return false
		}
		// Tight: no smaller multiple fits.
		return got-a.TileStep < n || got == a.TileStep
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRuntimeLengths(t *testing.T) {
	ls := BertBaseArch.RuntimeLengths()
	if len(ls) != 8 {
		t.Fatalf("BERT should have 8 runtimes (512/64), got %d", len(ls))
	}
	for i, l := range ls {
		if want := 64 * (i + 1); l != want {
			t.Errorf("runtime %d length = %d, want %d", i, l, want)
		}
	}
	if got := BertBaseArch.NumRuntimes(); got != 8 {
		t.Errorf("NumRuntimes = %d, want 8", got)
	}
}

func TestRuntimeLengthsN(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		ls := BertLargeArch.RuntimeLengthsN(n)
		if len(ls) != n {
			t.Fatalf("RuntimeLengthsN(%d) returned %d lengths", n, len(ls))
		}
		if ls[n-1] != 512 {
			t.Errorf("largest runtime must cover MaxLength, got %d", ls[n-1])
		}
		step := 512 / n
		for i, l := range ls {
			if l != step*(i+1) {
				t.Errorf("n=%d: runtime %d length = %d, want %d", n, i, l, step*(i+1))
			}
		}
	}
}

func TestRuntimeLengthsNPanicsOnBadSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-divisor runtime count")
		}
	}()
	BertBaseArch.RuntimeLengthsN(3)
}

// flops returns the forward-pass floating point operations for one sequence
// of the given length: per layer, QKV/output projections and the FFN cost
// 24*s*H^2 (with Intermediate = 4H) and attention score/value matmuls cost
// 4*s^2*H. It is the check of section 2.2's padding-waste (FLOP) figure.
func flops(a Arch, seqLen int) int64 {
	if seqLen <= 0 {
		return 0
	}
	s := int64(seqLen)
	h := int64(a.Hidden)
	inter := int64(a.Intermediate)
	proj := 4 * 2 * s * h * h // Q, K, V, output projections
	attn := 2 * 2 * s * s * h // QK^T and attention-weighted V
	ffn := 2 * 2 * s * h * inter
	return int64(a.Layers) * (proj + attn + ffn)
}

func TestFLOPsMonotonic(t *testing.T) {
	a := BertBaseArch
	prev := int64(0)
	for s := 1; s <= 512; s += 7 {
		f := flops(a, s)
		if f <= prev {
			t.Fatalf("FLOPs not strictly increasing at s=%d: %d <= %d", s, f, prev)
		}
		prev = f
	}
	if flops(a, 0) != 0 || flops(a, -3) != 0 {
		t.Error("FLOPs of non-positive length should be 0")
	}
}

func TestFLOPsSuperLinear(t *testing.T) {
	// Attention's quadratic term makes FLOPs(2s) > 2*FLOPs(s).
	a := BertLargeArch
	for _, s := range []int{16, 64, 128, 256} {
		if flops(a, 2*s) <= 2*flops(a, s) {
			t.Errorf("FLOPs(%d)=%d should exceed 2*FLOPs(%d)=%d", 2*s, flops(a, 2*s), s, 2*flops(a, s))
		}
	}
}

func TestPaddingWasteFraction(t *testing.T) {
	a := BertBaseArch
	// The paper reports ~80.6% of FLOPs wasted serving the Twitter trace
	// (median length 21) with max_length 125. A length-21 request alone
	// should waste more than 80%.
	waste := func(reqLen, maxLen int) float64 { return 1 - float64(flops(a, reqLen))/float64(flops(a, maxLen)) }
	w := waste(21, 125)
	if w < 0.80 || w > 0.99 {
		t.Errorf("waste for len 21 on 125 runtime = %.3f, want in [0.80, 0.99]", w)
	}
	// Waste is monotone decreasing in request length.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		l1 := 1 + rng.Intn(511)
		l2 := l1 + rng.Intn(512-l1)
		if waste(l1, 512) < waste(l2, 512) {
			t.Fatalf("waste should not increase with length: len %d vs %d", l1, l2)
		}
	}
}
