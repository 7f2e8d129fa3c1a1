package tokenizer

import (
	"slices"
	"testing"
	"unicode/utf8"
)

// FuzzTokenizerEncode fuzzes the whole text -> ids path with arbitrary
// input text and truncation limits, checking the invariants the serving
// path relies on:
//
//   - Encode never panics and always yields [CLS] ... [SEP];
//   - every id is within the vocabulary;
//   - a positive maxLen > 1 is a hard cap on the returned length;
//   - encoding is deterministic;
//   - SequenceLength (the allocation-free probe the dispatch path uses)
//     agrees exactly with the untruncated encoding;
//   - truncation only ever shortens: the truncated encoding is the full
//     encoding's prefix with [SEP] re-appended;
//   - the ids are the reference's (reference_test.go: greedy longest match
//     over a string map, truncated after the fact), with and without
//     truncation.
func FuzzTokenizerEncode(f *testing.F) {
	f.Add("", 0)
	f.Add("hello world", 128)
	f.Add("the quick brown fox jumps over the lazy dog", 8)
	f.Add("Movie was GREAT!!! 10/10 would watch again...", 512)
	f.Add("unaffable electroencephalography", 2)
	f.Add("naïve café — résumé", 16)
	f.Add("日本語のテキスト and mixed ascii", 3)
	f.Add("a\x00b\xffc", 5)
	f.Add("    \t\n\r   ", -7)
	f.Add("@#$%^&*()[]{};:'\",.<>/?\\|`~", 1)
	// The edges of the eight-bytes-at-a-time scanner: texts of 15, 16
	// and 17 bytes; words of 7, 8, 9, 15, 16 and 17 bytes, the 7- and
	// 17-byte ones also ending the text; a one-byte last word after a space;
	// case and digits; a run of spaces; a NUL and a non-ASCII rune inside
	// an ASCII run; punctuation on an 8-byte boundary.
	f.Add("the data team!!", 0)
	f.Add("the data team!!!", 4)
	f.Add("the data team!!!!", 0)
	f.Add("abcdefg abcdefgh abcdefghi", 0)
	f.Add("x abcdefg", 0)
	f.Add("abcdefghijklmno abcdefghijklmnop abcdefghijklmnopq", 0)
	f.Add("x abcdefghijklmnop", 3)
	f.Add("abcdefgh x", 0)
	f.Add("ABC123xyz Data2024 MODEL", 0)
	f.Add("a     b        c                 d", 0)
	f.Add("abc\x00defghij klm", 0)
	f.Add("cafébar abcdefgé abcdefghé naïveté", 0)
	f.Add("abcdefgh,ijklmnop.qr abcdefg!h", 0)

	tok := New()
	ref := newReference(tok)
	f.Fuzz(func(t *testing.T, text string, maxLen int) {
		ids := tok.Encode(text, maxLen)
		if want := ref.referenceEncode(text, maxLen); !slices.Equal(ids, want) {
			t.Fatalf("Encode(%q, %d) = %v, reference %v", text, maxLen, ids, want)
		}

		if len(ids) < 2 {
			t.Fatalf("Encode(%q, %d) = %d ids, want >= 2 ([CLS] and [SEP])", text, maxLen, len(ids))
		}
		if maxLen > 1 && len(ids) > maxLen {
			t.Fatalf("Encode(%q, %d) = %d ids, exceeds maxLen", text, maxLen, len(ids))
		}
		for i, id := range ids {
			if id < 0 || id >= len(tok.ids) {
				t.Fatalf("Encode(%q, %d): id[%d] = %d outside vocabulary [0,%d)", text, maxLen, i, id, len(tok.ids))
			}
		}
		toks := spell(tok, ids)
		if toks[0] != ClsToken {
			t.Fatalf("Encode(%q, %d) starts with %q, want %s", text, maxLen, toks[0], ClsToken)
		}
		if toks[len(toks)-1] != SepToken {
			t.Fatalf("Encode(%q, %d) ends with %q, want %s", text, maxLen, toks[len(toks)-1], SepToken)
		}

		// Determinism.
		again := tok.Encode(text, maxLen)
		if len(again) != len(ids) {
			t.Fatalf("Encode(%q, %d) nondeterministic: %d then %d ids", text, maxLen, len(ids), len(again))
		}
		for i := range ids {
			if ids[i] != again[i] {
				t.Fatalf("Encode(%q, %d) nondeterministic at %d: %d then %d", text, maxLen, i, ids[i], again[i])
			}
		}

		// The untruncated encoding is the ground truth the other paths
		// must agree with.
		full := tok.Encode(text, 0)
		want := ref.referenceEncode(text, 0)
		if !slices.Equal(full, want) {
			t.Fatalf("Encode(%q, 0) = %v, reference %v", text, full, want)
		}
		if got, want := tok.SequenceLength(text), len(full); got != want {
			t.Fatalf("SequenceLength(%q) = %d, Encode length = %d", text, got, want)
		}
		// An upper bound tied to the input size: each rune yields at most
		// one piece start, so the encoding cannot explode past the rune
		// count plus the two specials.
		if len(full) > utf8.RuneCountInString(text)+2 {
			t.Fatalf("Encode(%q, 0) = %d ids for %d runes", text, len(full), utf8.RuneCountInString(text))
		}

		// Truncation only shortens and only at the tail.
		if maxLen > 1 && len(full) > maxLen {
			if len(ids) != maxLen {
				t.Fatalf("Encode(%q, %d) truncated to %d ids, want exactly maxLen", text, maxLen, len(ids))
			}
			for i := 0; i < maxLen-1; i++ {
				if ids[i] != full[i] {
					t.Fatalf("Encode(%q, %d): truncation changed prefix at %d", text, maxLen, i)
				}
			}
		}
	})
}
