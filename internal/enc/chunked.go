package enc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"sync"
)

// ChunkSize is the raw-byte chunk granularity for the Chunked scheme,
// matching the paper's 256 KB (Table 2). Each chunk compresses
// independently so partial reads stay cheap.
const ChunkSize = 256 << 10

// maxInflateRatio bounds what DEFLATE can expand to: one length/distance
// pair (at least 2 bits) yields at most 258 bytes, so 8 input bits yield at
// most 1032 output bytes. A stream claiming more is corrupt, and rejecting
// it up front keeps a hostile size field from sizing the output buffer.
const maxInflateRatio = 1032

// The cascade selector trial-encodes every sampled stream with the
// Chunked, ChunkedF, ChunkedB and BitShuffle schemes, so DEFLATE state is
// needed far more often than pages are written. A flate.Writer carries
// about 1 MB of hash chains and window, and building one per chunk makes
// its allocation, zeroing and collection a large share of ingest CPU. Both
// directions therefore keep their state in a sync.Pool and Reset it per
// chunk: a reset writer is equivalent to a fresh one, so the compressed
// bytes do not depend on the pool. One state is held per concurrent
// encoder or decoder, and the pool drops idle ones at GC.

type deflateState struct {
	buf bytes.Buffer
	fw  *flate.Writer
}

var deflatePool = sync.Pool{
	New: func() any {
		s := &deflateState{}
		fw, err := flate.NewWriter(&s.buf, flate.DefaultCompression)
		if err != nil {
			panic(err) // only for an invalid level
		}
		s.fw = fw
		return s
	},
}

type inflateState struct {
	src bytes.Reader
	fr  io.Reader // also a flate.Resetter
}

var inflatePool = sync.Pool{
	New: func() any {
		s := &inflateState{}
		// bytes.Reader is an io.ByteReader, so the inflater reads it
		// directly instead of wrapping it in a bufio.Reader.
		s.fr = flate.NewReader(&s.src)
		return s
	},
}

// appendFlateChunks compresses raw in ChunkSize chunks with DEFLATE (the
// stdlib substitute for zstd; see DESIGN.md substitutions) and appends:
//
//	nChunks(uvarint) { compressedLen(uvarint) compressedBytes }*
//
// The compressor state comes from deflatePool.
func appendFlateChunks(dst, raw []byte) ([]byte, error) {
	nChunks := (len(raw) + ChunkSize - 1) / ChunkSize
	dst = binary.AppendUvarint(dst, uint64(nChunks))
	if nChunks == 0 {
		return dst, nil
	}
	s := deflatePool.Get().(*deflateState)
	defer deflatePool.Put(s)
	for lo := 0; lo < len(raw); lo += ChunkSize {
		hi := min(lo+ChunkSize, len(raw))
		s.buf.Reset()
		s.fw.Reset(&s.buf)
		if _, err := s.fw.Write(raw[lo:hi]); err != nil {
			return nil, err
		}
		if err := s.fw.Close(); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, uint64(s.buf.Len()))
		dst = append(dst, s.buf.Bytes()...)
	}
	return dst, nil
}

// readFlateChunks decompresses a chunk sequence into a new slice of exactly
// want bytes, failing unless the chunks inflate to want bytes in total.
// The inflater state comes from inflatePool.
func readFlateChunks(src []byte, want int) ([]byte, error) {
	nChunks, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, corruptf("chunked: bad chunk count")
	}
	src = src[sz:]
	if want < 0 || want/maxInflateRatio > len(src) {
		return nil, corruptf("chunked: %d bytes cannot inflate to %d", len(src), want)
	}
	out := make([]byte, want)
	s := inflatePool.Get().(*inflateState)
	defer func() {
		s.src.Reset(nil) // the pool must not pin the caller's page
		inflatePool.Put(s)
	}()
	got := 0
	for c := uint64(0); c < nChunks; c++ {
		clen, sz := binary.Uvarint(src)
		if sz <= 0 || clen > uint64(len(src)-sz) {
			return nil, corruptf("chunked: bad chunk %d length", c)
		}
		src = src[sz:]
		s.src.Reset(src[:clen])
		if err := s.fr.(flate.Resetter).Reset(&s.src, nil); err != nil {
			return nil, corruptf("chunked: chunk %d: %v", c, err)
		}
		var err error
		if got, err = inflateInto(s.fr, out, got); err != nil {
			return nil, corruptf("chunked: chunk %d: %v", c, err)
		}
		src = src[clen:]
	}
	if got != want {
		return nil, corruptf("chunked: decompressed %d bytes, want %d", got, want)
	}
	return out, nil
}

// inflateInto reads fr to EOF into out[off:] and returns the new offset.
// Bytes past the end of out are counted but dropped, so the caller can
// report the full inflated size of an overlong stream.
func inflateInto(fr io.Reader, out []byte, off int) (int, error) {
	for {
		var n int
		var err error
		if off < len(out) {
			n, err = fr.Read(out[off:])
		} else {
			var spill [512]byte
			n, err = fr.Read(spill[:])
		}
		off += n
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			return off, err
		}
	}
}
