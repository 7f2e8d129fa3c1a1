package tokenizer

import (
	"unicode"
	"unicode/utf8"
)

// The reference: the greedy longest-match WordPiece over a string map that
// the package shipped before the vocabulary was compiled into a trie,
// moved here verbatim. It defines what the ids are; FuzzTokenizerEncode and
// the adversarial-vocabulary table hold appendEncode to it.

type reference struct {
	vocab         map[string]int
	unk, cls, sep int
	maxWordLen    int

	word     []rune // current basic token, lowercased
	buf      []byte // "##" + utf8(word): the matching arena
	offs     []int  // buf offset of each rune in word, plus end sentinel
	pieceIDs []int  // vocabulary ids of the current word's pieces
}

// newReference builds the reference over t's vocabulary. Not safe for
// concurrent use: the scratch lives in the value.
func newReference(t *Tokenizer) *reference {
	ref := &reference{vocab: make(map[string]int, len(t.ids)), maxWordLen: 100}
	for i, tok := range t.ids {
		ref.vocab[tok] = i
	}
	ref.unk, ref.cls, ref.sep = ref.vocab[UnkToken], ref.vocab[ClsToken], ref.vocab[SepToken]
	return ref
}

// eachWord performs basic tokenization — lowercase, split on whitespace,
// punctuation and symbols as standalone single-rune words — accumulating
// each word into sc.word and invoking flush for it.
func (sc *reference) eachWord(text string, flush func()) {
	sc.word = sc.word[:0]
	for _, r := range text {
		if r < utf8.RuneSelf {
			switch {
			case r == ' ' || r == '\t' || r == '\n' || r == '\r' ||
				r == '\v' || r == '\f':
				if len(sc.word) > 0 {
					flush()
					sc.word = sc.word[:0]
				}
			case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
				sc.word = append(sc.word, r)
			case r >= 'A' && r <= 'Z':
				sc.word = append(sc.word, r+('a'-'A'))
			default: // ASCII punctuation and symbols
				if len(sc.word) > 0 {
					flush()
				}
				sc.word = append(sc.word[:0], r)
				flush()
				sc.word = sc.word[:0]
			}
			continue
		}
		switch {
		case unicode.IsSpace(r):
			if len(sc.word) > 0 {
				flush()
				sc.word = sc.word[:0]
			}
		case unicode.IsPunct(r) || unicode.IsSymbol(r):
			if len(sc.word) > 0 {
				flush()
			}
			sc.word = append(sc.word[:0], unicode.ToLower(r))
			flush()
			sc.word = sc.word[:0]
		default:
			sc.word = append(sc.word, unicode.ToLower(r))
		}
	}
	if len(sc.word) > 0 {
		flush()
		sc.word = sc.word[:0]
	}
}

// matchWord greedily splits sc.word into vocabulary pieces, filling
// sc.pieceIDs. It reports false when any span is unmatchable or the word
// exceeds maxWordLen — the caller emits a single [UNK] then.
func (sc *reference) matchWord() bool {
	sc.buf = append(sc.buf[:0], '#', '#')
	sc.offs = sc.offs[:0]
	for _, r := range sc.word {
		sc.offs = append(sc.offs, len(sc.buf))
		sc.buf = utf8.AppendRune(sc.buf, r)
	}
	sc.offs = append(sc.offs, len(sc.buf))
	if len(sc.buf)-2 > sc.maxWordLen {
		return false
	}
	sc.pieceIDs = sc.pieceIDs[:0]
	n := len(sc.word)
	start := 0
	for start < n {
		found := -1
		for end := n; end > start; end-- {
			var key []byte
			if start == 0 {
				key = sc.buf[2:sc.offs[end]]
			} else {
				sc.buf[sc.offs[start]-2] = '#'
				sc.buf[sc.offs[start]-1] = '#'
				key = sc.buf[sc.offs[start]-2 : sc.offs[end]]
			}
			if id, ok := sc.vocab[string(key)]; ok {
				found = id
				start = end
				break
			}
		}
		if found < 0 {
			return false // any unmatchable span voids the word
		}
		sc.pieceIDs = append(sc.pieceIDs, found)
	}
	return true
}

// referenceEncode is Encode as the map-based tokenizer computed it:
// tokenize everything, wrap in [CLS] ... [SEP], truncate afterwards.
func (sc *reference) referenceEncode(text string, maxLen int) []int {
	ids := []int{sc.cls}
	sc.eachWord(text, func() {
		if sc.matchWord() {
			ids = append(ids, sc.pieceIDs...)
		} else {
			ids = append(ids, sc.unk)
		}
	})
	ids = append(ids, sc.sep)
	if maxLen > 1 && len(ids) > maxLen {
		ids = ids[:maxLen-1]
		ids = append(ids, sc.sep)
	}
	return ids
}
