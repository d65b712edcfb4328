package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bullion/internal/bitutil"
)

// Decoders face hostile bytes (disk corruption, truncation, crossed
// streams). They must return errors — never panic, never hang — for any
// mutation of a valid stream. These tests hammer every decoder with
// random corruptions.

func mutate(rng *rand.Rand, data []byte) []byte {
	out := append([]byte{}, data...)
	switch rng.Intn(4) {
	case 0: // flip random bytes
		for k := 0; k < 1+rng.Intn(4); k++ {
			out[rng.Intn(len(out))] ^= byte(1 << uint(rng.Intn(8)))
		}
	case 1: // truncate
		out = out[:rng.Intn(len(out))]
	case 2: // splice garbage
		pos := rng.Intn(len(out))
		g := make([]byte, 1+rng.Intn(16))
		rng.Read(g)
		out = append(out[:pos:pos], g...)
	case 3: // duplicate a window
		if len(out) > 4 {
			pos := rng.Intn(len(out) - 2)
			out = append(out[:pos:pos], out[pos:]...)
		}
	}
	return out
}

func noPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decoder panicked: %v", name, r)
		}
	}()
	fn()
}

func TestIntDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	opts := DefaultOptions()
	for _, tc := range intSchemes {
		vs := tc.gen(rng, 300)
		encoded, err := EncodeIntsWith(nil, tc.id, vs, opts)
		if err != nil {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			bad := mutate(rng, encoded)
			if len(bad) == 0 {
				continue
			}
			noPanic(t, tc.id.String(), func() {
				_, _ = DecodeInts(bad, 300)
				_, _ = DecodeInts(bad, 1) // wrong count too
			})
		}
	}
}

func TestFloatDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	opts := DefaultOptions()
	for _, tc := range floatSchemes {
		vs := tc.gen(rng, 300)
		encoded, err := EncodeFloatsWith(nil, tc.id, vs, opts)
		if err != nil {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			bad := mutate(rng, encoded)
			if len(bad) == 0 {
				continue
			}
			noPanic(t, tc.id.String(), func() {
				_, _ = DecodeFloats(bad, 300)
			})
		}
	}
}

func TestBytesDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	opts := DefaultOptions()
	for _, tc := range bytesSchemes {
		vs := tc.gen(rng, 200)
		encoded, err := EncodeBytesWith(nil, tc.id, vs, opts)
		if err != nil {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			bad := mutate(rng, encoded)
			if len(bad) == 0 {
				continue
			}
			noPanic(t, tc.id.String(), func() {
				_, _ = DecodeBytes(bad, 200)
			})
		}
	}
}

func TestBoolDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, id := range []SchemeID{PlainBool, SparseBool, Roaring} {
		vs := genBools(rng, 5000, 0.3)
		encoded, err := EncodeBoolsWith(nil, id, vs)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			bad := mutate(rng, encoded)
			if len(bad) == 0 {
				continue
			}
			noPanic(t, id.String(), func() {
				_, _ = DecodeBools(bad, 5000)
			})
		}
	}
}

func TestNullableDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	opts := DefaultOptions()
	n := 200
	vs := make([]int64, n)
	valid := boolsBitmap(n, func(i int) bool { return i%3 != 0 })
	for i := range vs {
		vs[i] = rng.Int63n(1000)
	}
	encoded, err := EncodeNullableInts(nil, vs, valid, opts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		bad := mutate(rng, encoded)
		if len(bad) == 0 {
			continue
		}
		noPanic(t, "nullable", func() {
			_, _, _ = DecodeNullableInts(bad, n)
		})
	}
}

// TestFlateChunksRejectBadLengths pins the errors of the pooled inflater:
// a chunk sequence that inflates past or short of the expected size, a
// chunk whose DEFLATE stream is cut short, a chunk length that overruns
// the buffer, and a size no DEFLATE stream of that length can reach.
func TestFlateChunksRejectBadLengths(t *testing.T) {
	raw := chunkInput(rand.New(rand.NewSource(66)), ChunkSize+5000)
	good, err := appendFlateChunks(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	// Split the framing to rebuild streams with a damaged first chunk.
	nChunks, sz := binary.Uvarint(good)
	if nChunks != 2 {
		t.Fatalf("%d chunks, want 2", nChunks)
	}
	clen, csz := binary.Uvarint(good[sz:])
	first := good[sz+csz : sz+csz+int(clen)]
	rest := good[sz+csz+int(clen):]
	reframe := func(chunk []byte) []byte {
		out := binary.AppendUvarint(nil, 2)
		out = binary.AppendUvarint(out, uint64(len(chunk)))
		return append(append(out, chunk...), rest...)
	}

	cases := []struct {
		name string
		src  []byte
		want int
		msg  string
	}{
		{"inflates past want", good, len(raw) - 1, fmt.Sprintf("decompressed %d bytes, want %d", len(raw), len(raw)-1)},
		{"first chunk past want", good, 100, fmt.Sprintf("decompressed %d bytes, want 100", len(raw))},
		{"inflates short of want", good, len(raw) + 1, fmt.Sprintf("decompressed %d bytes, want %d", len(raw), len(raw)+1)},
		{"truncated chunk", reframe(first[:len(first)/2]), len(raw), "chunk 0: unexpected EOF"},
		{"chunk length overruns", good[:len(good)-1], len(raw), "bad chunk 1 length"},
		{"impossible size", good, 1 << 40, "cannot inflate"},
	}
	for _, tc := range cases {
		out, err := readFlateChunks(tc.src, tc.want)
		if err == nil {
			t.Fatalf("%s: accepted (%d bytes)", tc.name, len(out))
		}
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.msg) {
			t.Fatalf("%s: error %q, want ErrCorrupt containing %q", tc.name, err, tc.msg)
		}
	}

	// The same failures surface through the scheme decoders.
	vs := make([]int64, 500)
	for i := range vs {
		vs[i] = int64(i % 17)
	}
	for _, id := range []SchemeID{Chunked, BitShuffle} {
		encoded, err := EncodeIntsWith(nil, id, vs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeInts(encoded, len(vs)-1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%v decoded with one value too few: %v", id, err)
		}
		if _, err := DecodeInts(encoded, len(vs)+1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%v decoded with one value too many: %v", id, err)
		}
	}
}

// boolsBitmap builds a bitmap from a predicate.
func boolsBitmap(n int, pred func(int) bool) *bitutil.Bitmap {
	b := bitutil.NewBitmap(n)
	for i := 0; i < n; i++ {
		if pred(i) {
			b.Set(i)
		}
	}
	return b
}
