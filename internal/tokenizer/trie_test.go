package tokenizer

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func mustVocab(t *testing.T, toks ...string) *Tokenizer {
	t.Helper()
	tok, err := NewFromVocab(append([]string{PadToken, UnkToken, ClsToken, SepToken}, toks...))
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// TestAdversarialVocabularies holds the trie to the reference on the
// vocabularies and inputs a byte-keyed index can get wrong and a map keyed
// by whole strings cannot.
func TestAdversarialVocabularies(t *testing.T) {
	ascii100, ascii101 := strings.Repeat("a", 100), strings.Repeat("a", 101)
	rune99, rune102 := strings.Repeat("日", 33), strings.Repeat("日", 34)
	cases := []struct {
		name  string
		vocab []string
		text  string
		want  []string // nil: only the reference is consulted
	}{
		{"token ending mid-rune does not match inside the rune",
			[]string{"\xc3", "##\xc3", "a", "a\xc3"}, "é aé \xc3", []string{UnkToken, UnkToken, UnkToken}},
		{"whole rune still matches next to its lead byte",
			[]string{"\xc3", "é", "##é", "a"}, "é aé", []string{"é", "a", "##é"}},
		{"bare ## is inert",
			[]string{"##", "#", "a", "##b"}, "## ab a#b #", []string{"#", "#", "a", "##b", "a", "#", UnkToken, "#"}},
		{"### only ever continues, and # never does",
			[]string{"###", "#", "a"}, "a# ###", []string{"a", "#", "#", "#", "#"}},
		{"no continuation pieces at all",
			[]string{"a", "ab"}, "ab abc a", []string{"ab", UnkToken, "a"}},
		{"longest wins, then backs off",
			[]string{"a", "ab", "abc", "##c", "##bc", "##d"}, "abc abcd abd abcc ac abce",
			[]string{"abc", "abc", "##d", "ab", "##d", "abc", "##c", "a", "##c", UnkToken}},
		{"head matches, tail has no continuation",
			[]string{"un", "##aff", "##able"}, "unaffable unaffablex unx", []string{"un", "##aff", "##able", UnkToken, UnkToken}},
		{"100-byte ASCII word is matched, 101 is not",
			[]string{"a", "##a"}, ascii100 + " " + ascii101, nil},
		{"99- and 102-byte words of 3-byte runes",
			[]string{"日", "##日"}, rune99 + " " + rune102, nil},
		{"a long word that is itself an entry",
			[]string{ascii100, ascii101}, ascii100 + " " + ascii101, []string{ascii100, UnkToken}},
		{"NUL and an invalid byte stand alone",
			[]string{"a", "b", "c", "\x00", "�"}, "a\x00b\xffc", []string{"a", "\x00", "b", "�", "c"}},
		{"invalid byte without an entry",
			[]string{"a", "b", "c", "\xff"}, "a\x00b\xffc", []string{"a", UnkToken, "b", UnkToken, "c"}},
		{"upper case that lowers to fewer bytes",
			[]string{"i", "k", "##k", "istanbul", "İ", "K"}, "İ İstanbul K kK", []string{"i", "istanbul", "k", "k", "##k"}},
		{"upper case that lowers to more bytes",
			[]string{"ⱥ", "##ⱥ", "a", "Ⱥ"}, "Ⱥ aȺ", []string{"ⱥ", "a", "##ⱥ"}},
		{"the cap counts lowered bytes",
			[]string{"k", "##k"}, strings.Repeat("K", 100) + " " + strings.Repeat("K", 101), nil},
		{"upper-case entries are unreachable, specials included",
			[]string{"Hello", "hello", "[", "]", "cls"}, "Hello [CLS] HELLO", []string{"hello", "[", "cls", "]", "hello"}},
		{"symbols are lowered too",
			[]string{"ⓐ", "Ⓐ"}, "Ⓐⓐ", []string{"ⓐ", "ⓐ"}},
		{"non-ASCII space and punctuation split words",
			[]string{"a", "b", "—", "##b"}, "a b a—b a　ab", []string{"a", "b", "a", "—", "b", "a", "a", "##b"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tok := mustVocab(t, c.vocab...)
			ref := newReference(tok)
			for _, maxLen := range []int{0, 2, 3, 4} {
				if got, want := tok.Encode(c.text, maxLen), ref.referenceEncode(c.text, maxLen); !slices.Equal(got, want) {
					t.Fatalf("Encode(%q, %d) = %q, reference %q", c.text, maxLen, spell(tok, got), spell(tok, want))
				}
			}
			got := pieces(tok, c.text)
			if c.want != nil && !slices.Equal(got, c.want) {
				t.Fatalf("pieces(%q) = %q, want %q", c.text, got, c.want)
			}
			if n := tok.SequenceLength(c.text); n != len(got)+2 {
				t.Fatalf("SequenceLength(%q) = %d, Encode has %d pieces", c.text, n, len(got))
			}
		})
	}
}

// TestRandomVocabulariesMatchReference is the differential check over
// vocabularies other than the built-in one (the fuzz target's): random
// entries over a small mixed-width alphabet, so multi-piece splits, dead
// ends and shared prefixes are the common case, and a vocabulary large
// enough that the array is grown and holes are refilled.
func TestRandomVocabulariesMatchReference(t *testing.T) {
	alphabet := []rune("abcde01éß日本Kİ")
	word := func(rng *rand.Rand, max int) string {
		w := make([]rune, 1+rng.Intn(max))
		for i := range w {
			w[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(w)
	}
	for seed, size := range []int{40, 400, 20000} {
		rng := rand.New(rand.NewSource(int64(seed)))
		seen := map[string]bool{}
		var vocab []string
		for len(vocab) < size {
			tok := word(rng, 6)
			if rng.Intn(2) == 0 {
				tok = "##" + tok
			}
			if !seen[tok] {
				seen[tok] = true
				vocab = append(vocab, tok)
			}
		}
		tok := mustVocab(t, vocab...)
		for _, v := range vocab {
			if id := tok.lookup(v); id < 0 || tok.ids[id] != v {
				t.Fatalf("size %d: lookup(%q) = %d", size, v, id)
			}
		}
		ref := newReference(tok)
		for i := 0; i < 300; i++ {
			var b strings.Builder
			for n := rng.Intn(12); n > 0; n-- {
				b.WriteString(word(rng, 9))
				b.WriteString([]string{" ", ", ", "\t", "　", "!"}[rng.Intn(5)])
			}
			text, maxLen := b.String(), rng.Intn(12)
			if got, want := tok.Encode(text, maxLen), ref.referenceEncode(text, maxLen); !slices.Equal(got, want) {
				t.Fatalf("size %d: Encode(%q, %d) = %q, reference %q", size, text, maxLen, spell(tok, got), spell(tok, want))
			}
		}
	}
}

// TestCompiledVocabularySize keeps the built-in vocabulary's index small
// enough to stay cache-resident next to the serving path's own data.
func TestCompiledVocabularySize(t *testing.T) {
	tok := New()
	if size := len(tok.nodes) * int(unsafe.Sizeof(node{})); size > 256<<10 {
		t.Errorf("built-in vocabulary compiles to %d bytes, want <= 256 KiB", size)
	}
	used := 0
	for _, n := range tok.nodes {
		if n.check != unused {
			used++
		}
	}
	if used*2 < len(tok.nodes) {
		t.Errorf("double array is %d/%d full: the builder is wasting slots", used, len(tok.nodes))
	}
}

// TestEncodeStopsAtMaxLen: encoding a maximum-size request costs what its
// first maxLen tokens cost, not what the whole text would.
func TestEncodeStopsAtMaxLen(t *testing.T) {
	tok := New()
	text := strings.Repeat("the data team will share news today ", (1<<20)/36+1)[:1<<20]
	want := tok.Encode(text[:8<<10], 512)
	if len(want) != 512 {
		t.Fatalf("the 8 KiB head encodes to %d ids, want 512", len(want))
	}
	_ = tok.Encode(text, 512) // warm the pooled buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := tok.Encode(text, 512)
	runtime.ReadMemStats(&after)
	if !slices.Equal(got, want) {
		t.Fatalf("Encode of 1 MiB at 512 differs from Encode of its first 8 KiB")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("Encode of 1 MiB at 512 allocated %d bytes, want < 64 KiB", alloc)
	}
	// The word that reaches the cap is finished first: its tail decides
	// whether its head's pieces stand.
	small := mustVocab(t, "a", "##b", "x")
	for _, text := range []string{"x x abé x", "x x ab x"} {
		full := small.Encode(text, 0)
		if got, want := small.Encode(text, 4), append(slices.Clone(full[:3]), full[len(full)-1]); !slices.Equal(got, want) {
			t.Errorf("Encode(%q, 4) = %v, want the full encoding's prefix %v", text, got, want)
		}
	}
}
