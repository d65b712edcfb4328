package enc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// freshFlateChunks is the reference framing built with a new flate.Writer
// per chunk, the construction the pooled writer must reproduce exactly.
func freshFlateChunks(t *testing.T, raw []byte) []byte {
	t.Helper()
	nChunks := (len(raw) + ChunkSize - 1) / ChunkSize
	dst := binary.AppendUvarint(nil, uint64(nChunks))
	for lo := 0; lo < len(raw); lo += ChunkSize {
		hi := min(lo+ChunkSize, len(raw))
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(raw[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		dst = binary.AppendUvarint(dst, uint64(buf.Len()))
		dst = append(dst, buf.Bytes()...)
	}
	return dst
}

// chunkInput returns n bytes mixing runs and noise so every chunk
// exercises both matches and literals.
func chunkInput(rng *rand.Rand, n int) []byte {
	raw := make([]byte, n)
	for i := 0; i < n; {
		run := 1 + rng.Intn(64)
		b := byte(rng.Intn(256))
		for j := 0; j < run && i < n; j++ {
			if rng.Intn(4) == 0 {
				raw[i] = byte(rng.Intn(256))
			} else {
				raw[i] = b
			}
			i++
		}
	}
	return raw
}

// TestFlateChunksMatchFreshWriter checks that pooled, reset DEFLATE state
// yields the same bytes as a fresh writer, and that the pooled inflater
// reads them back, for empty input, under one chunk and several chunks,
// with many goroutines sharing the pools. Each goroutine walks the inputs
// from a different start, so states are reused across sizes.
func TestFlateChunksMatchFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	sizes := []int{0, 1, 100, ChunkSize - 1, ChunkSize, 2*ChunkSize + 4097}
	raws := make([][]byte, len(sizes))
	wants := make([][]byte, len(sizes))
	for i, n := range sizes {
		raws[i] = chunkInput(rng, n)
		wants[i] = freshFlateChunks(t, raws[i])
	}
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sizes {
				i := (g + k) % len(sizes)
				name := fmt.Sprintf("g%d/n%d", g, sizes[i])
				got, err := appendFlateChunks([]byte{0xAB}, raws[i])
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if got[0] != 0xAB {
					t.Errorf("%s: dst prefix overwritten", name)
				}
				if !bytes.Equal(got[1:], wants[i]) {
					t.Errorf("%s: pooled writer output differs from a fresh flate.Writer", name)
					return
				}
				back, err := readFlateChunks(got[1:], sizes[i])
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if !bytes.Equal(back, raws[i]) {
					t.Errorf("%s: round-trip mismatch", name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
