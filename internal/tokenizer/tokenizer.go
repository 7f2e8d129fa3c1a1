// Package tokenizer implements a greedy longest-match WordPiece tokenizer
// in the style of BERT's, with a compact built-in vocabulary. The paper
// excludes tokenization from its latency accounting (modern tokenizers
// process gigabytes per second, section 5); here every request enters as
// text — the server and the router both tokenize it to learn its real
// length — so the tokenizer is on every request's bill.
//
// Text is encoded in one pass. A word of up to 15 ASCII letters and digits
// is read eight bytes at a time — classified and lowercased by bitwise
// arithmetic on a 64-bit word — and looked up whole in an open-addressing
// table of the word-initial entries, one probe. Every other word is read a
// byte at a time and walked down the vocabulary compiled into a byte-level
// double-array trie (trie.go); a word that is not itself an entry is split
// by longest-match walks of that trie, from the "##" continuation root
// after the first piece. What the ids must be is defined by the plain
// greedy longest-match over a string map kept in the test file
// (referenceEncode); the fuzz target holds this implementation to it on
// every input.
package tokenizer

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
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
	table              []entry // the word-initial entries of up to 16 bytes, by packed bytes
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
	// The word-initial table, at most a quarter full so that most probes
	// end on their first slot. A NUL byte would read as padding, so an
	// entry with one is left to the trie, like a continuation piece.
	t.table = make([]entry, 1<<bits.Len(uint(len(vocab)*4)))
	for id, tok := range t.ids {
		if len(tok) <= 16 && !strings.HasPrefix(tok, "##") && strings.IndexByte(tok, 0) < 0 {
			lo, hi := load64(tok, 0), load64(tok, 8)
			*slot(t.table, lo, hi) = entry{lo, hi, uint32(id)}
		}
	}
	for _, special := range []struct {
		name string
		id   *uint32
	}{{PadToken, &t.pad}, {UnkToken, &t.unk}, {ClsToken, &t.cls}, {SepToken, &t.sep}} {
		lo, hi := load64(special.name, 0), load64(special.name, 8)
		if e := slot(t.table, lo, hi); e.lo == lo && e.hi == hi {
			*special.id = e.id
		} else {
			return nil, fmt.Errorf("tokenizer: vocabulary missing %s", special.name)
		}
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

// asciiLower maps the ASCII letters and digits — the bytes that extend a
// word — to their lowercase and every other byte to 0: on the per-byte
// path one load classifies and lowercases, which also dodges the unicode
// range tables that dominate the per-rune cost.
var asciiLower = func() (tab [256]byte) {
	for c := '0'; c <= '9'; c++ {
		tab[c] = byte(c)
	}
	for c := 'a'; c <= 'z'; c++ {
		tab[c], tab[c-'a'+'A'] = byte(c), byte(c)
	}
	return tab
}()

// entry is one slot of the word-initial table: an entry of up to 16 bytes,
// keyed by its bytes read as two little-endian words (load64) and found by
// linear probing.
type entry struct {
	lo, hi uint64 // lo 0 marks a free slot
	id     uint32
}

// slot returns the slot of the key lo, hi in table, or the free slot its
// linear probe ends on.
func slot(table []entry, lo, hi uint64) *entry {
	mask := len(table) - 1
	const golden = 0x9e3779b97f4a7c15 // Fibonacci hashing
	for j := int((lo^hi)*golden>>32) & mask; ; j = (j + 1) & mask {
		if e := &table[j]; e.lo == lo && e.hi == hi || e.lo == 0 {
			return e
		}
	}
}

// load64 returns the 8 bytes of s from i on, little-endian; the bytes
// past the end of s read as 0, which ends a word as any ASCII byte does.
func load64(s string, i int) uint64 {
	if len(s)-i >= 8 {
		return binary.LittleEndian.Uint64([]byte(s[i : i+8])) // no copy: the bytes are only read
	}
	var tail [8]byte
	copy(tail[:], s[min(i, len(s)):])
	return binary.LittleEndian.Uint64(tail[:])
}

// The SWAR (SIMD within a register) constants: a byte's lowest and top bit
// in each of a word's eight bytes.
const ones, high = 0x0101010101010101, 0x8080808080808080

// lowerAlnum returns the bytes of w, eight read little-endian, before its
// first byte that is neither an ASCII letter or digit nor a non-ASCII
// byte, with the letters lowercased; and stop, that byte's top bit, 0 when
// there is none. The range tests run on the eight bytes at once: none can
// carry into its neighbour once the top bits are cleared.
func lowerAlnum(w uint64) (run, stop uint64) {
	x := w &^ high
	y := x | 0x20*ones // ASCII letters fold onto 'a'..'z'
	in := ((y+(0x80-'a')*ones)&^(y+(0x7f-'z')*ones) | (x+(0x80-'0')*ones)&^(x+(0x7f-'9')*ones) | w) & high
	stop = ^in & high
	stop &= -stop
	return (w | in>>2) & (stop>>7 - 1), stop
}

// appendEncode appends text's encoding to dst and returns the extended
// slice: [CLS], the WordPiece ids, [SEP], truncated to maxLen ids in total
// (maxLen <= 1 disables truncation). It is the one scanning loop; Borrow
// lends its output, and Encode and SequenceLength borrow it.
//
// Basic tokenization — lowercase; split on whitespace; punctuation and
// symbols stand alone as one-rune words — and the lookup of each word
// happen in the same pass over the bytes. A short ASCII word is read eight
// bytes at a time and found whole in the table; any other word is read a
// byte at a time and walked down the trie from the word-initial root; a
// word that is not an entry is split. Encoding stops after the word that
// reaches maxLen: that word is finished first,
// because an unmatchable span later in it voids its earlier pieces into a
// single [UNK], and the truncated encoding must stay the full encoding's
// prefix.
func (t *Tokenizer) appendEncode(dst []uint32, text string, maxLen int) []uint32 {
	head := len(dst)
	dst = append(dst, t.cls)
	// The current word, lowercased, for split; bytes past the cap are
	// counted in n but not kept.
	var word [maxWordLen]byte
	nodes, table := t.nodes, t.table
	for i := 0; i < len(text) && (maxLen <= 1 || len(dst)-head < maxLen); {
		// The fast path: a word of up to 15 ASCII letters and digits, or
		// one ASCII punctuation byte, read eight bytes at a time and looked
		// up whole. Any ASCII byte, or the end of the text, ends it.
		lo, stop := lowerAlnum(load64(text, i))
		hi, n := uint64(0), bits.TrailingZeros64(stop)/8
		if stop == 0 && lo&high == 0 { // an ASCII word runs on into the next eight bytes
			hi, stop = lowerAlnum(load64(text, i+8))
			n += bits.TrailingZeros64(stop) / 8
		}
		if n == 0 && text[i] > ' ' {
			n, lo = 1, uint64(text[i]) // punctuation stands alone
		}
		if n > 0 && n < 16 && (lo|hi)&high == 0 { // else the word has non-ASCII bytes, or is long
			if e := slot(table, lo, hi); e.lo == lo && e.hi == hi {
				dst = append(dst, e.id)
			} else {
				binary.LittleEndian.PutUint64(word[:], lo)
				binary.LittleEndian.PutUint64(word[8:], hi)
				dst = t.split(dst, word[:n])
			}
			if i += n; i < len(text) && text[i] == ' ' { // so the next word starts the next pass
				i++
			}
			continue
		}
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
				break scan // the next word may take the fast path
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
// truncating to maxLen total ids (maxLen <= 1 disables truncation: no
// encoding is shorter than the 2 ids of [CLS] [SEP]). The returned length
// is the model's input sequence length — what Arlo dispatches on.
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
