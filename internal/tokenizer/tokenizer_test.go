package tokenizer

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// spell maps ids to their tokens' spellings.
func spell(tok *Tokenizer, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = tok.ids[id]
	}
	return out
}

// pieces spells text's WordPiece tokens, [CLS] and [SEP] dropped.
func pieces(tok *Tokenizer, text string) []string {
	toks := spell(tok, tok.Encode(text, 0))
	return toks[1 : len(toks)-1]
}

// TestBuiltinVocabValid pins the built-in vocabulary — its size and an
// FNV-1a hash of its entries in id order — so that no edit to vocab.go can
// move an id.
func TestBuiltinVocabValid(t *testing.T) {
	vocab := New().ids
	h := fnv.New64a()
	for _, tok := range vocab {
		h.Write(append([]byte(tok), 0))
	}
	if len(vocab) != 423 || h.Sum64() != 0x89015f955838e6b {
		t.Errorf("built-in vocabulary: %d entries, hash %#x; want 423 entries, hash 0x89015f955838e6b", len(vocab), h.Sum64())
	}
}

func TestNewFromVocabValidation(t *testing.T) {
	if _, err := NewFromVocab(nil); err == nil {
		t.Error("empty vocab should fail")
	}
	if _, err := NewFromVocab([]string{PadToken, UnkToken, ClsToken, SepToken, ""}); err == nil {
		t.Error("empty token should fail")
	}
	if _, err := NewFromVocab([]string{PadToken, UnkToken, ClsToken, SepToken, "a", "a"}); err == nil {
		t.Error("duplicate token should fail")
	}
	for _, missing := range []string{PadToken, UnkToken, ClsToken, SepToken} {
		v := []string{}
		for _, s := range []string{PadToken, UnkToken, ClsToken, SepToken} {
			if s != missing {
				v = append(v, s)
			}
		}
		if _, err := NewFromVocab(v); err == nil {
			t.Errorf("vocab missing %s should fail", missing)
		}
	}
}

func TestTokenizeKnownWords(t *testing.T) {
	tok := New()
	got := pieces(tok, "The quick data")
	// "the" and "data" are vocabulary words; "quick" splits into pieces.
	if got[0] != "the" {
		t.Errorf("first token = %q, want %q", got[0], "the")
	}
	if got[len(got)-1] != "data" {
		t.Errorf("last token = %q, want %q", got[len(got)-1], "data")
	}
	joined := strings.Join(got, " ")
	if strings.Contains(joined, UnkToken) {
		t.Errorf("ASCII text should never produce UNK with single-char fallback: %v", got)
	}
}

func TestWordPieceGreedyLongestMatch(t *testing.T) {
	tok, err := NewFromVocab([]string{
		PadToken, UnkToken, ClsToken, SepToken,
		"un", "##aff", "##able", "##ffa", "##b", "##le", "u", "##n",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := pieces(tok, "unaffable")
	want := []string{"un", "##aff", "##able"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", got, want)
		}
	}
}

func TestUnmatchableWordBecomesUnk(t *testing.T) {
	tok, err := NewFromVocab([]string{PadToken, UnkToken, ClsToken, SepToken, "a"})
	if err != nil {
		t.Fatal(err)
	}
	got := pieces(tok, "ab")
	if len(got) != 1 || got[0] != UnkToken {
		t.Errorf("tokens = %v, want [%s]", got, UnkToken)
	}
}

func TestVeryLongWordBecomesUnk(t *testing.T) {
	tok := New()
	long := strings.Repeat("a", 150)
	got := pieces(tok, long)
	if len(got) != 1 || got[0] != UnkToken {
		t.Errorf("150-char word should be UNK, got %d tokens", len(got))
	}
}

func TestEncodeWrapsAndTruncates(t *testing.T) {
	tok := New()
	ids := tok.Encode("hello world", 0)
	dec := spell(tok, ids)
	if dec[0] != ClsToken || dec[len(dec)-1] != SepToken {
		t.Errorf("encode should wrap in CLS/SEP, got %v", dec)
	}
	// Truncation preserves the trailing SEP.
	long := strings.Repeat("data news today ", 100)
	capped := tok.Encode(long, 32)
	if len(capped) != 32 {
		t.Errorf("truncated length = %d, want 32", len(capped))
	}
	decCap := spell(tok, capped)
	if decCap[31] != SepToken {
		t.Errorf("truncated sequence must end with SEP, got %q", decCap[31])
	}
	// maxLen 1, like 0 and below, leaves the encoding whole.
	for _, maxLen := range []int{1, -1} {
		if got := tok.Encode(long, maxLen); !slices.Equal(got, tok.Encode(long, 0)) {
			t.Errorf("Encode(long, %d) has %d ids, Encode(long, 0) %d", maxLen, len(got), len(tok.Encode(long, 0)))
		}
	}
}

func TestSequenceLengthMatchesEncode(t *testing.T) {
	tok := New()
	texts := []string{"", "hi", "the quick brown fox jumps", "OMG!!! Check this out @user #tag"}
	for _, s := range texts {
		if got, want := tok.SequenceLength(s), len(tok.Encode(s, 0)); got != want {
			t.Errorf("SequenceLength(%q) = %d, want %d", s, got, want)
		}
	}
	if tok.SequenceLength("") != 2 {
		t.Errorf("empty text should encode to [CLS][SEP], length 2")
	}
}

func TestPunctuationSplitting(t *testing.T) {
	tok := New()
	got := pieces(tok, "hi,there!")
	// Punctuation becomes its own token.
	found := 0
	for _, tk := range got {
		if tk == "," || tk == "!" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("expected , and ! as separate tokens, got %v", got)
	}
}

func TestTokenizeNeverPanicsQuick(t *testing.T) {
	tok := New()
	f := func(s string) bool {
		ids := tok.Encode(s, 128)
		return len(ids) >= 2 && len(ids) <= 128
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripKnownTokens(t *testing.T) {
	tok := New()
	ids := tok.Encode("the data team", 0)
	dec := spell(tok, ids)
	want := []string{ClsToken, "the", "data", "team", SepToken}
	if len(dec) != len(want) {
		t.Fatalf("decode = %v, want %v", dec, want)
	}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("decode = %v, want %v", dec, want)
		}
	}
}

// benchText is representative request text: mixed known words, subword
// splits, punctuation and casing.
var benchText = strings.Repeat(
	"The quick brown fox jumps over the lazy dog, affable and unbelievable! ", 8)

func BenchmarkEncode(b *testing.B) {
	tok := New()
	b.ReportAllocs()
	b.SetBytes(int64(len(benchText)))
	for i := 0; i < b.N; i++ {
		_ = tok.Encode(benchText, 0)
	}
}

func BenchmarkSequenceLength(b *testing.B) {
	tok := New()
	b.ReportAllocs()
	b.SetBytes(int64(len(benchText)))
	for i := 0; i < b.N; i++ {
		_ = tok.SequenceLength(benchText)
	}
}

// poolTexts is text drawn like the benchmark harness's pool: its lexicon —
// mostly whole-word vocabulary hits, some words the fallback splits into
// many pieces, punctuation — joined by spaces to about 500 bytes a text.
// benchText above is two thirds multi-piece words, which under-weights the
// whole-word hit that dominates the serving workloads.
var poolTexts = lexiconTexts(`the of and to in is was for it with as on be at by this
	not are but from have they which you were all there would their been when who will
	more about into than them only other new some time these first now like our over
	even most after also many before through back years where much your well down
	because people world still work long here between life never another while last
	great since against right house during without again place around however home
	school every number always something water public think enough government system
	better nothing night program city business group young model data news today love
	really happy twitter tweet post follow share best thanks video game team music
	serving latency request tokens dispatch scheduler throughput transformer inference
	allocation congestion runtime polymorph demotion benchmark , . ! ? : ; - ( )`)

// nonASCIITexts is text the eight-bytes-at-a-time scanner hands to the
// per-byte path: accented Latin words, CJK runs and non-ASCII punctuation,
// with a few ASCII words between them.
var nonASCIITexts = lexiconTexts(`café naïve résumé déjà façade garçon élève über straße
	señor año piñata crème brûlée soirée 日本語 東京 中文 テキスト 한국어 服务 延迟 请求
	— 、 。 « » the data`)

// lexiconTexts draws 64 texts of 200 to 800 bytes from the words of lexicon,
// joined by spaces.
func lexiconTexts(lexicon string) []string {
	words := strings.Fields(lexicon)
	rng := rand.New(rand.NewSource(1))
	texts := make([]string, 64)
	for i := range texts {
		var b strings.Builder
		for size := 200 + rng.Intn(600); b.Len() < size; {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		texts[i] = b.String()
	}
	return texts
}

// BenchmarkEncodePool is Encode over harness-like text; the Borrow
// sub-benchmark is what the server pays, which keeps no ids, and NonASCII
// is Borrow over text the fast path does not take.
func BenchmarkEncodePool(b *testing.B) {
	tok := New()
	for _, c := range []struct {
		name   string
		texts  []string
		borrow bool
	}{{"Encode", poolTexts, false}, {"Borrow", poolTexts, true}, {"NonASCII", nonASCIITexts, true}} {
		bytes := 0
		for _, s := range c.texts {
			bytes += len(s)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(bytes / len(c.texts)))
			n := 0
			for i := 0; i < b.N; i++ {
				if text := c.texts[i%len(c.texts)]; c.borrow {
					tok.Borrow(text, 512, func(ids []uint32) { n += len(ids) })
				} else {
					n += len(tok.Encode(text, 512))
				}
			}
		})
	}
}

// BenchmarkEncodeParallel exercises the pooled scratch path the way the
// HTTP front end does: many goroutines encoding concurrently.
func BenchmarkEncodeParallel(b *testing.B) {
	tok := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = tok.Encode(benchText, 0)
		}
	})
}

// BenchmarkNew is the cost of compiling the built-in vocabulary, which
// router.New and every benchmark set-up pay once.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = New()
	}
}
