// Package tokenizer implements a greedy longest-match WordPiece tokenizer
// in the style of BERT's, with a compact built-in vocabulary. The paper
// excludes tokenization from its latency accounting (modern tokenizers
// process gigabytes per second, section 5); here every request enters as
// text — the server and the router both tokenize it to learn its real
// length — so the tokenizer is on every request's bill.
//
// The vocabulary is compiled once into a byte-level double-array trie
// (trie.go) and text is encoded in one pass: each word is lowercased and
// walked down the trie as it is read, so a word that is itself a
// vocabulary entry costs one table step per byte, and only a word that
// falls off is split, by longest-match walks from the "##" continuation
// root. What the ids must be is defined by the plain greedy longest-match
// over a string map kept in the test file (referenceEncode); the fuzz
// target holds this implementation to it on every input.
package tokenizer

import (
	"fmt"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Special token names.
const (
	PadToken = "[PAD]"
	UnkToken = "[UNK]"
	ClsToken = "[CLS]"
	SepToken = "[SEP]"
)

// maxWordLen caps per-word matching work, as in BERT's reference
// implementation: a word of more lowercased bytes becomes [UNK].
const maxWordLen = 100

// Tokenizer splits text into WordPiece tokens and maps them to vocabulary
// ids. It is safe for concurrent use after construction.
type Tokenizer struct {
	trie
	ids                []string
	pad, unk, cls, sep uint32
}

// NewFromVocab builds a tokenizer from an explicit vocabulary. The
// vocabulary must contain the four special tokens and no duplicates;
// continuation pieces are spelled with the "##" prefix.
func NewFromVocab(vocab []string) (*Tokenizer, error) {
	if len(vocab) == 0 {
		return nil, fmt.Errorf("tokenizer: empty vocabulary")
	}
	for i, tok := range vocab {
		if tok == "" {
			return nil, fmt.Errorf("tokenizer: empty token at index %d", i)
		}
	}
	t := &Tokenizer{ids: append([]string(nil), vocab...)}
	var err error
	if t.trie, err = compile(t.ids); err != nil {
		return nil, err
	}
	for _, special := range []struct {
		name string
		id   *uint32
	}{{PadToken, &t.pad}, {UnkToken, &t.unk}, {ClsToken, &t.cls}, {SepToken, &t.sep}} {
		id := t.lookup(special.name)
		if id < 0 {
			return nil, fmt.Errorf("tokenizer: vocabulary missing %s", special.name)
		}
		*special.id = uint32(id)
	}
	return t, nil
}

// New returns a tokenizer over the built-in vocabulary.
func New() *Tokenizer {
	t, err := NewFromVocab(builtinVocab())
	if err != nil {
		panic(err) // the built-in vocabulary is a compile-time constant
	}
	return t
}

// VocabSize returns the vocabulary size. Only tests call it: they read the
// compiled vocabulary's size through it.
func (t *Tokenizer) VocabSize() int { return len(t.ids) }

// asciiLower maps the ASCII letters and digits — the bytes that extend a
// word — to their lowercase and every other byte to 0: one load classifies
// and lowercases on the fast path, which also dodges the unicode range
// tables that dominate the per-rune cost on typical English input.
var asciiLower = func() (tab [256]byte) {
	for c := '0'; c <= '9'; c++ {
		tab[c] = byte(c)
	}
	for c := 'a'; c <= 'z'; c++ {
		tab[c], tab[c-'a'+'A'] = byte(c), byte(c)
	}
	return tab
}()

// appendEncode appends text's encoding to dst and returns the extended
// slice: [CLS], the WordPiece ids, [SEP], truncated to maxLen ids in total
// (maxLen <= 1 disables truncation). It is the one scanning loop; Borrow
// lends its output, and Encode and SequenceLength borrow it.
//
// Basic tokenization — lowercase; split on whitespace; punctuation and
// symbols stand alone as one-rune words — and the walk down the trie from
// the word-initial root happen in the same pass over the bytes. Encoding
// stops after the word that reaches maxLen: that word is finished first,
// because an unmatchable span later in it voids its earlier pieces into a
// single [UNK], and the truncated encoding must stay the full encoding's
// prefix.
func (t *Tokenizer) appendEncode(dst []uint32, text string, maxLen int) []uint32 {
	head := len(dst)
	dst = append(dst, t.cls)
	// The current word, lowercased, for split; bytes past the cap are
	// counted in n but not kept.
	var word [maxWordLen]byte
	nodes := t.nodes
	for i := 0; i < len(text) && (maxLen <= 1 || len(dst)-head < maxLen); {
		n, at := 0, root // at is the node word[:n] leads to
	scan:
		for i < len(text) {
			b := text[i]
			if c := asciiLower[b]; c != 0 {
				if n < maxWordLen {
					word[n] = c
				}
				n++
				at = step(nodes, at, c)
				i++
				continue
			}
			// A separator or a non-ASCII rune. Every other ASCII byte,
			// control characters included, is punctuation.
			r, size := rune(b), 1
			space := b == ' ' || b-'\t' < 5 // \t \n \v \f \r
			alone := !space
			if b >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(text[i:]) // an invalid byte reads as U+FFFD, a symbol
				space = unicode.IsSpace(r)
				alone = !space && (unicode.IsPunct(r) || unicode.IsSymbol(r))
				r = unicode.ToLower(r)
			}
			if space {
				i += size
				if n > 0 {
					break scan
				}
				continue
			}
			if alone && n > 0 {
				break scan // not consumed: it comes round again as its own word
			}
			i += size
			var enc [utf8.UTFMax]byte
			for _, c := range enc[:utf8.EncodeRune(enc[:], r)] {
				if n < maxWordLen {
					word[n] = c
				}
				n++
				at = step(nodes, at, c)
			}
			if alone {
				break scan
			}
		}
		switch {
		case n == 0: // trailing whitespace
		case n > maxWordLen:
			dst = append(dst, t.unk)
		case nodes[at].id >= 0:
			dst = append(dst, uint32(nodes[at].id))
		default:
			dst = t.split(dst, word[:n])
		}
	}
	dst = append(dst, t.sep)
	if maxLen > 1 && len(dst)-head > maxLen {
		dst = append(dst[:head+maxLen-1], t.sep)
	}
	return dst
}

// split appends the pieces of a word that is not itself a vocabulary
// entry: greedy longest match, the first piece from the word-initial root
// and the rest from the continuation root. A piece may end only on a rune
// boundary (the trie is keyed by bytes, the vocabulary by characters), and
// a span nothing matches voids the whole word into one [UNK].
func (t *Tokenizer) split(dst []uint32, word []byte) []uint32 {
	mark := len(dst)
	nodes := t.nodes
	from := root
	for start := 0; start < len(word); from = t.cont {
		id, end := int32(-1), start
		for at, i := from, start; at != dead && i < len(word); {
			at = step(nodes, at, word[i])
			i++
			if nodes[at].id >= 0 && (i == len(word) || utf8.RuneStart(word[i])) {
				id, end = nodes[at].id, i
			}
		}
		if id < 0 {
			return append(dst[:mark], t.unk)
		}
		dst = append(dst, uint32(id))
		start = end
	}
	return dst
}

// scratchPool recycles the id buffers Borrow lends out, so the callers
// that keep no ids — the server needs a length and a label, the length
// probe a count — allocate nothing per request.
var scratchPool = sync.Pool{New: func() any { return new([]uint32) }}

// Borrow encodes text — [CLS], the WordPiece ids, [SEP], truncated to
// maxLen ids in total when maxLen > 1 — into a pooled buffer and lends it
// to use. The ids are valid only until use returns: a caller that keeps
// them copies them out, one that needs a length or a fold keeps nothing.
func (t *Tokenizer) Borrow(text string, maxLen int, use func(ids []uint32)) {
	buf := scratchPool.Get().(*[]uint32)
	*buf = t.appendEncode((*buf)[:0], text, maxLen)
	use(*buf)
	scratchPool.Put(buf)
}

// Encode tokenizes text and maps it to ids wrapped in [CLS] ... [SEP],
// truncating to maxLen total ids (maxLen <= 0 disables truncation; the
// minimum useful maxLen is 2). The returned length is the model's input
// sequence length — what Arlo dispatches on.
func (t *Tokenizer) Encode(text string, maxLen int) (ids []int) {
	t.Borrow(text, maxLen, func(enc []uint32) {
		ids = make([]int, len(enc))
		for i, id := range enc {
			ids[i] = int(id)
		}
	})
	return ids
}

// SequenceLength returns the encoded length of text without truncation —
// the request length Arlo's schedulers consume — without allocating.
func (t *Tokenizer) SequenceLength(text string) (n int) {
	t.Borrow(text, 0, func(ids []uint32) { n = len(ids) })
	return n
}
