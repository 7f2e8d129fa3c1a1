package tokenizer

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// trieLookup returns the id the trie holds for tok as spelled, or -1.
func trieLookup(tok *Tokenizer, s string) int32 {
	at := root
	for i := 0; i < len(s); i++ {
		at = step(tok.nodes, at, s[i])
	}
	return tok.nodes[at].id
}

func mustVocab(t *testing.T, toks ...string) *Tokenizer {
	t.Helper()
	tok, err := NewFromVocab(append([]string{PadToken, UnkToken, ClsToken, SepToken}, toks...))
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

var (
	ascii100, ascii101 = strings.Repeat("a", 100), strings.Repeat("a", 101)
	rune99, rune102    = strings.Repeat("日", 33), strings.Repeat("日", 34)
)

// adversarial lists the vocabularies and inputs a byte-keyed index can get
// wrong and a map keyed by whole strings cannot.
var adversarial = []struct {
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

// TestAdversarialVocabularies holds the trie to the reference on the
// adversarial vocabularies.
func TestAdversarialVocabularies(t *testing.T) {
	for _, c := range adversarial {
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

// TestTableAgreesWithTrie holds the word-initial table to the trie, the
// index it short-cuts: every entry the table can key (up to 16 bytes, no
// "##", no NUL) is in it under the trie's id and nothing else is; every
// proper prefix of an entry that is not itself one misses; and through the
// encode path a word that is an entry resolves to the trie's id, whichever
// path reads it. The vocabularies are the built-in one, the adversarial
// ones, and one with entries of 7, 8, 15, 16 and 17 bytes — either side of
// the scanner's 8-byte loads — a non-ASCII one, and one that would pack
// like another but for its NUL.
func TestTableAgreesWithTrie(t *testing.T) {
	toks := []*Tokenizer{New(), mustVocab(t, "abcdefg", "abcdefgh", "abcdefghijklmno", "abcdefghijklmnop",
		"abcdefghijklmnopq", "café", "a", "##b", "abcdefgi", "abcdefg\x00")}
	for _, c := range adversarial {
		toks = append(toks, mustVocab(t, c.vocab...))
	}
	for _, tok := range toks {
		find := func(s string) *entry { return slot(tok.table, load64(s, 0), load64(s, 8)) }
		ref := newReference(tok)
		keyed := 0
		for id, v := range tok.ids {
			if len(v) > 16 || strings.HasPrefix(v, "##") || strings.Contains(v, "\x00") {
				continue
			}
			keyed++
			if e := find(v); e.lo == 0 || e.id != uint32(id) || trieLookup(tok, v) != int32(id) {
				t.Errorf("%q (id %d): table slot %+v, trie id %d", v, id, *e, trieLookup(tok, v))
			}
			for n := 1; n < len(v); n++ {
				if p := v[:n]; trieLookup(tok, p) < 0 && find(p).lo != 0 {
					t.Errorf("%q, a prefix of %q and no entry, is in the table as id %d", p, v, find(p).id)
				}
			}
			// Followed by room for both 8-byte loads, so that an ASCII word
			// of up to 15 bytes takes the fast path.
			text := v + strings.Repeat(" ", 17)
			got, want := tok.Encode(text, 0), ref.referenceEncode(text, 0)
			if strings.Trim(v, "abcdefghijklmnopqrstuvwxyz0123456789") == "" {
				want = []int{int(tok.cls), int(trieLookup(tok, v)), int(tok.sep)}
			}
			if !slices.Equal(got, want) {
				t.Errorf("Encode(%q) = %q, want %q", text, spell(tok, got), spell(tok, want))
			}
		}
		used := 0
		for _, e := range tok.table {
			if e.lo != 0 {
				used++
			}
		}
		if used != keyed {
			t.Errorf("table holds %d entries, want the %d it can key", used, keyed)
		}
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
			if id := trieLookup(tok, v); id < 0 || tok.ids[id] != v {
				t.Fatalf("size %d: trieLookup(%q) = %d", size, v, id)
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
