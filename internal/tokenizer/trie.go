package tokenizer

import (
	"fmt"
	"slices"
	"strings"
)

// trie is the compiled vocabulary: a double-array trie keyed by the
// tokens' bytes exactly as the vocabulary spells them, "##" included, so
// the continuation pieces hang under the node "##" leads to and that node
// serves as their root. A step is two loads and a compare whatever the
// vocabulary, and a slot is twelve bytes, so the built-in vocabulary
// compiles to about 11 KiB — cache-resident — where a 256-wide child table
// per node would not fit a BERT vocab.txt in memory worth having.
type trie struct {
	nodes []node
	cont  int32 // the continuation root; dead when the vocabulary has no "##" entry
}

// node is one slot of the double array.
type node struct {
	base  int32 // the child on byte c, if any, is slot base+c
	check int32 // the slot's parent, so a step can tell its child from a stranger's
	id    int32 // the vocabulary id of the token that ends here, -1 for none
}

const (
	root int32 = 0
	// dead is where a walk that fell off the trie stays: a slot of its own
	// with no children and no id, so the walking loops need no liveness
	// test.
	dead int32 = 1

	unused int32 = -1 // check of a free slot
	pinned int32 = -2 // check of root and dead: taken, and nobody's child
)

// step follows byte c out of node at. It takes the array, not the trie,
// so a loop can hold the slice header in registers across its stores.
func step(nodes []node, at int32, c byte) int32 {
	next := int(nodes[at].base) + int(c)
	if uint(next) < uint(len(nodes)) && nodes[next].check == at {
		return int32(next)
	}
	return dead
}

// compile builds the trie over vocab, whose ids are its indices. Sorting
// puts the tokens under one node side by side, so the build walks runs of
// the sorted order and duplicates sit next to each other.
func compile(vocab []string) (trie, error) {
	order := make([]int32, len(vocab))
	size := 1 // an upper bound on the node count: the root and one per byte
	for i, tok := range vocab {
		order[i] = int32(i)
		size += len(tok)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(vocab[a], vocab[b]) })
	for i := 1; i < len(order); i++ {
		if vocab[order[i]] == vocab[order[i-1]] {
			return trie{}, fmt.Errorf("tokenizer: duplicate token %q", vocab[order[i]])
		}
	}

	// run is the tokens order[lo:hi], which share their first depth bytes;
	// at is the node those bytes lead to.
	type run struct {
		lo, hi, depth int
		at            int32
	}
	b := builder{free: 2}
	b.grow(size + 256)
	b.nodes[root].check, b.nodes[dead].check = pinned, pinned
	stack := []run{{0, len(order), 0, root}}
	var kids []byte
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(vocab[order[r.lo]]) == r.depth {
			b.nodes[r.at].id = order[r.lo] // the token that ends here sorts first
			r.lo++
		}
		if r.lo == r.hi {
			continue
		}
		kids = kids[:0]
		for _, tok := range order[r.lo:r.hi] {
			if c := vocab[tok][r.depth]; len(kids) == 0 || kids[len(kids)-1] != c {
				kids = append(kids, c)
			}
		}
		base := b.fit(kids)
		b.nodes[r.at].base = base
		lo := r.lo
		for _, c := range kids {
			hi := lo
			for hi < r.hi && vocab[order[hi]][r.depth] == c {
				hi++
			}
			b.nodes[base+int32(c)].check = r.at
			stack = append(stack, run{lo, hi, r.depth + 1, base + int32(c)})
			lo = hi
		}
	}

	last := len(b.nodes) - 1
	for b.nodes[last].check == unused {
		last--
	}
	t := trie{nodes: append([]node(nil), b.nodes[:last+1]...)}
	t.cont = step(t.nodes, step(t.nodes, root, '#'), '#')
	return t, nil
}

// builder is the double array under construction.
type builder struct {
	nodes []node
	free  int // where fit starts looking; what lies below is given up as full
}

// grow extends the array to n free slots.
func (b *builder) grow(n int) {
	old := len(b.nodes)
	b.nodes = append(b.nodes, make([]node, n-old)...)
	for i := old; i < n; i++ {
		b.nodes[i] = node{check: unused, id: -1}
	}
}

// fit returns the lowest base, from the search start on, at which every
// child's slot is free, growing the array to hold it. Bases start at 1, so
// no child lands on the root's slot.
func (b *builder) fit(kids []byte) int32 {
	begin := max(b.free, int(kids[0])+1)
	taken := 0
search:
	for pos := begin; ; pos++ {
		if len(b.nodes) < pos+256 {
			b.grow(2 * (pos + 256))
		}
		if b.nodes[pos].check != unused {
			taken++
			continue
		}
		base := pos - int(kids[0])
		for _, c := range kids[1:] {
			if b.nodes[base+int(c)].check != unused {
				continue search
			}
		}
		// A region that is 95% full is left behind for good (the rule
		// Darts uses): restarting every search below a hole nothing fits
		// would make a large vocabulary's build quadratic.
		if taken*20 >= (pos-begin+1)*19 {
			b.free = pos
		}
		return int32(base)
	}
}
