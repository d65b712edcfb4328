package enc

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"bullion/internal/bitutil"
)

// Huffman (Table 2): entropy coding for integers drawn from a small
// alphabet, assigning shorter codes to more frequent values. Canonical
// codes keep the header compact: only (symbol, code length) pairs are
// stored and both sides rebuild identical codebooks.
//
// payload := nSym(uvarint) { symbol(varint) codeLen(1B) }* bitstream
//
// Not applicable above maxHuffmanSymbols distinct values.

const maxHuffmanSymbols = 512

// huffCode is a canonical code assignment for one symbol.
type huffCode struct {
	sym    int64
	length int
	code   uint64 // MSB-first canonical code
}

// huffSym is one distinct symbol of an encoder's input.
type huffSym struct {
	sym    int64
	freq   int
	length int
	rev    uint64 // canonical code bit-reversed for the LSB-first writer
}

// huffScratch is the encoder's working set, pooled because the cascade
// selector runs a Huffman trial on every low-cardinality sample.
type huffScratch struct {
	sorted []int64    // sorted copy of the input
	syms   []huffSym  // distinct symbols, ascending
	order  []int32    // indices into syms, by (freq, sym)
	weight []int      // per tree node: leaves first, then merged nodes
	parent []int32    // per tree node
	codes  []huffCode // canonical codebook, by (length, sym)
}

var huffPool = sync.Pool{New: func() any { return new(huffScratch) }}

// build fills h.syms and h.codes with canonical Huffman codes for vs. It
// reports false when vs has more than maxHuffmanSymbols distinct values.
//
// The tree is built by the two-queue method: leaves ordered by
// (freq, sym), merged nodes in creation order, and a leaf wins a tie with
// a merged node. Every input therefore maps to exactly one tree, so the
// encoded bytes are reproducible.
func (h *huffScratch) build(vs []int64) bool {
	h.sorted = append(h.sorted[:0], vs...)
	slices.Sort(h.sorted)
	h.syms = h.syms[:0]
	for i := 0; i < len(h.sorted); {
		j := i + 1
		for j < len(h.sorted) && h.sorted[j] == h.sorted[i] {
			j++
		}
		if len(h.syms) == maxHuffmanSymbols {
			return false
		}
		h.syms = append(h.syms, huffSym{sym: h.sorted[i], freq: j - i})
		i = j
	}
	if n := len(h.syms); n == 1 {
		h.syms[0].length = 1 // a lone symbol still needs a 1-bit code
	} else if n > 1 {
		h.setLengths()
	}
	h.codes = h.codes[:0]
	for _, s := range h.syms {
		h.codes = append(h.codes, huffCode{sym: s.sym, length: s.length})
	}
	assignCanonical(h.codes)
	for _, c := range h.codes {
		k, _ := slices.BinarySearchFunc(h.syms, c.sym, cmpHuffSym)
		h.syms[k].rev = bits.Reverse64(c.code) >> uint(64-c.length)
	}
	return true
}

// setLengths sets the code length of each of the (two or more) symbols.
func (h *huffScratch) setLengths() {
	n := len(h.syms)
	h.order = h.order[:0]
	for k := range h.syms {
		h.order = append(h.order, int32(k))
	}
	// Symbol indices ascend with sym, so (freq, index) is (freq, sym).
	slices.SortFunc(h.order, func(a, b int32) int {
		if c := cmp.Compare(h.syms[a].freq, h.syms[b].freq); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	nodes := 2*n - 1
	h.weight = slices.Grow(h.weight[:0], nodes)[:nodes]
	h.parent = slices.Grow(h.parent[:0], nodes)[:nodes]
	for x, k := range h.order {
		h.weight[x] = h.syms[k].freq
	}
	leaf, merged := 0, n
	next := func(made int) int {
		if leaf < n && (merged == made || h.weight[leaf] <= h.weight[merged]) {
			leaf++
			return leaf - 1
		}
		merged++
		return merged - 1
	}
	for made := n; made < nodes; made++ {
		a := next(made)
		b := next(made)
		h.weight[made] = h.weight[a] + h.weight[b]
		h.parent[a], h.parent[b] = int32(made), int32(made)
	}
	// Children precede their parent, so one backward pass turns the
	// weights into depths, starting from the root at depth 0.
	depth := h.weight
	depth[nodes-1] = 0
	for x := nodes - 2; x >= 0; x-- {
		depth[x] = depth[h.parent[x]] + 1
	}
	for x, k := range h.order {
		h.syms[k].length = depth[x]
	}
}

func cmpHuffSym(s huffSym, v int64) int { return cmp.Compare(s.sym, v) }

// assignCanonical sorts codes by (length, symbol) and assigns canonical
// code values.
func assignCanonical(codes []huffCode) {
	slices.SortFunc(codes, func(a, b huffCode) int {
		if c := cmp.Compare(a.length, b.length); c != 0 {
			return c
		}
		return cmp.Compare(a.sym, b.sym)
	})
	var code uint64
	prevLen := 0
	for i := range codes {
		code <<= uint(codes[i].length - prevLen)
		codes[i].code = code
		code++
		prevLen = codes[i].length
	}
}

func encodeHuffmanInts(dst []byte, vs []int64) ([]byte, error) {
	h := huffPool.Get().(*huffScratch)
	defer huffPool.Put(h)
	if !h.build(vs) {
		return nil, ErrNotApplicable
	}
	dst = binary.AppendUvarint(dst, uint64(len(h.codes)))
	for _, c := range h.codes {
		dst = binary.AppendVarint(dst, c.sym)
		dst = append(dst, byte(c.length))
	}
	// Codes are defined MSB-first; writing the reversed code puts the MSB
	// in the LSB-first writer's first bit, as canonical prefix decoding
	// expects.
	w := bitutil.NewWriter(dst)
	for _, v := range vs {
		k, _ := slices.BinarySearchFunc(h.syms, v, cmpHuffSym)
		w.WriteBits(h.syms[k].rev, h.syms[k].length)
	}
	return w.Bytes(), nil
}

func decodeHuffmanInts(dst []int64, src []byte) ([]int64, error) {
	nSym, sz := binary.Uvarint(src)
	if sz <= 0 || nSym > maxHuffmanSymbols {
		return nil, corruptf("huffman: bad symbol count")
	}
	src = src[sz:]
	codes := make([]huffCode, nSym)
	for i := range codes {
		sym, sz := binary.Varint(src)
		if sz <= 0 || len(src) < sz+1 {
			return nil, corruptf("huffman: truncated codebook")
		}
		codes[i] = huffCode{sym: sym, length: int(src[sz])}
		if codes[i].length <= 0 || codes[i].length > 64 {
			return nil, corruptf("huffman: bad code length %d", codes[i].length)
		}
		src = src[sz+1:]
	}
	assignCanonical(codes)
	type key struct {
		length int
		code   uint64
	}
	table := make(map[key]int64, len(codes))
	for _, c := range codes {
		table[key{c.length, c.code}] = c.sym
	}
	r := bitutil.NewReader(src)
	for i := range dst {
		var code uint64
		length := 0
		for {
			bit, err := r.ReadBit()
			if err != nil {
				return nil, corruptf("huffman: bitstream exhausted at value %d", i)
			}
			code = code<<1 | b2u(bit)
			length++
			if sym, ok := table[key{length, code}]; ok {
				dst[i] = sym
				break
			}
			if length > 64 {
				return nil, corruptf("huffman: no code matches at value %d", i)
			}
		}
	}
	return dst, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
