package enc

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tiedStream returns n values drawn round-robin from five symbols, so
// every frequency ties. A five-leaf tree gives two symbols a shorter code
// than the rest, and which two is decided by tie-breaking alone.
func tiedStream(n int) []int64 {
	syms := []int64{-3, 7, 40, 41, 1 << 33}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = syms[i%len(syms)]
	}
	return vs
}

func TestHuffmanDeterministic(t *testing.T) {
	vs := tiedStream(200)
	want, err := EncodeIntsWith(nil, Huffman, vs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, err := EncodeIntsWith(nil, Huffman, vs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-encode %d produced different bytes (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// optimalHuffmanBits is the cost of an optimal prefix code for freqs:
// the sum of the weights of every merge in Huffman's algorithm.
func optimalHuffmanBits(freqs []int) int {
	if len(freqs) == 1 {
		return freqs[0] // a lone symbol still spends one bit per value
	}
	ws := slices.Clone(freqs)
	cost := 0
	for len(ws) > 1 {
		slices.Sort(ws)
		m := ws[0] + ws[1]
		cost += m
		ws = append(ws[2:], m)
	}
	return cost
}

// TestHuffmanProperty checks, on random alphabets and skews, that the
// encoding round-trips and that its size is exactly the scheme byte, the
// codebook, and Σ freq × length bits of an optimal code.
func TestHuffmanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(3000)
		alphabet := 1 + rng.Intn(maxHuffmanSymbols)
		syms := make([]int64, alphabet)
		for i := range syms {
			syms[i] = rng.Int63n(1<<40) - 1<<39
		}
		skew := 1 + rng.Float64()*3
		vs := make([]int64, n)
		counts := map[int64]int{}
		for i := range vs {
			vs[i] = syms[int(float64(alphabet)*math.Pow(rng.Float64(), skew))]
			counts[vs[i]]++
		}
		encoded, err := EncodeIntsWith(nil, Huffman, vs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeInts(encoded, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(got, vs) {
			t.Fatalf("trial %d: round-trip mismatch", trial)
		}

		codebook := binary.AppendUvarint(nil, uint64(len(counts)))
		var freqs []int
		for sym, f := range counts {
			codebook = binary.AppendVarint(codebook, sym)
			codebook = append(codebook, 0) // code length byte
			freqs = append(freqs, f)
		}
		bits := 0
		if len(freqs) > 0 {
			bits = optimalHuffmanBits(freqs)
		}
		want := 1 + len(codebook) + (bits+7)/8
		if len(encoded) != want {
			t.Fatalf("trial %d: %d symbols, %d values: encoded %d bytes, want %d (%d code bits)",
				trial, len(counts), n, len(encoded), want, bits)
		}
	}
}
