//go:build !race

// Not under the race detector: there sync.Pool drops a share of its Puts on
// purpose, so the pooled paths cannot be held to zero allocations.

package tokenizer

import "testing"

// TestEncodeAllocGuard pins the allocation profile the serving path relies
// on: lending the ids costs nothing, the length probe nothing, appending
// into a buffer with room nothing, and Encode one exact-size slice (the
// map-based tokenizer's was one over-sized slice, plus growth).
func TestEncodeAllocGuard(t *testing.T) {
	tok := New()
	text := poolTexts[0]
	buf := make([]uint32, 0, 1024)
	n := 0
	for name, c := range map[string]struct {
		max float64
		f   func()
	}{
		"Borrow":         {0, func() { tok.Borrow(text, 512, func(ids []uint32) { n += len(ids) }) }},
		"SequenceLength": {0, func() { n += tok.SequenceLength(text) }},
		"appendEncode":   {0, func() { buf = tok.appendEncode(buf[:0], text, 512) }},
		"Encode":         {1, func() { n += len(tok.Encode(text, 512)) }},
	} {
		c.f() // warm the pooled buffer
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", name, got, c.max)
		}
	}
}
