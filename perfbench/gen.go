package main

import (
	"fmt"
	"math"
	"math/rand"

	"bullion"
	"bullion/internal/workload"
)

// scaleDown scales the paper's Table-1 ads schema: 1/256 gives 81 leaf
// columns, 63 of them sparse list<int64>.
const scaleDown = 256

// rowsPerUser is how many consecutive rows the generator gives each
// user (workload.AdsColumns writes uid = i/8); an erasure removes them all.
const rowsPerUser = 8

// adsSchema builds the scaled ads schema with sparse columns marked.
func adsSchema() (*bullion.Schema, error) {
	return workload.AdsSchema(scaleDown, true)
}

// projections. epochColumns is the paper's wide-table projection: a
// minority (16 of 81) of the columns, mostly sparse id sequences.
// serveColumns is a feature lookup's handful of columns.
func epochColumns(s *bullion.Schema) []string {
	cols := []string{"uid", "req_id_0"}
	nSparse, nDense, nNested := 0, 0, 0
	for _, f := range s.Fields {
		switch {
		case f.Sparse && nSparse < 11:
			cols = append(cols, f.Name)
			nSparse++
		case f.Type.Kind == bullion.List && f.Type.Elem == bullion.Float32 && nDense < 2:
			cols = append(cols, f.Name)
			nDense++
		case f.Type.Kind == bullion.ListList && nNested < 1:
			cols = append(cols, f.Name)
			nNested++
		}
	}
	return cols
}

func serveColumns(s *bullion.Schema) []string {
	cols := []string{"uid", "req_id_0"}
	nSparse, nDense := 0, 0
	for _, f := range s.Fields {
		switch {
		case f.Sparse && nSparse < 2:
			cols = append(cols, f.Name)
			nSparse++
		case f.Type.Kind == bullion.List && f.Type.Elem == bullion.Float32 && nDense < 1:
			cols = append(cols, f.Name)
			nDense++
		}
	}
	return cols
}

// partition is one generated ingest unit: rows of consecutive users.
type partition struct {
	batch *bullion.Batch
	// sparseValues counts the int64 values in the sparse columns.
	sparseValues int64
}

// genPartition generates partition id deterministically from the seed:
// the ads generator's content, with uids made globally unique.
func genPartition(s *bullion.Schema, seed int64, id, rows int, userBase int64) (*partition, error) {
	rng := rand.New(rand.NewSource(mixSeed(seed, int64(id))))
	cols := workload.AdsColumns(rng, s, rows)
	ui, ok := s.Lookup("uid")
	if !ok {
		return nil, fmt.Errorf("ads schema has no uid column")
	}
	uid := cols[ui].(bullion.Int64Data)
	for i := range uid {
		uid[i] = userBase + int64(i/rowsPerUser)
	}
	b, err := bullion.NewBatch(s, cols)
	if err != nil {
		return nil, err
	}
	p := &partition{batch: b}
	for ci, f := range s.Fields {
		if f.Sparse {
			for _, l := range cols[ci].(bullion.ListInt64Data) {
				p.sparseValues += int64(len(l))
			}
		}
	}
	return p, nil
}

// mixSeed derives an independent stream seed (splitmix64 finalizer).
func mixSeed(seed, stream int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream) + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// rowHasher hashes a batch's rows over a fixed column list, so rows
// generated and rows scanned back can be compared by value.
type rowHasher struct {
	names []string
}

// hashRows appends the hash of each row of b over the hasher's columns
// (looked up by name, so column order in b does not matter).
func (h rowHasher) hashRows(b *bullion.Batch, dst []uint64) ([]uint64, error) {
	n := b.NumRows()
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, 0xcbf29ce484222325)
	}
	out := dst[base:]
	for _, name := range h.names {
		ci, ok := b.Schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("batch has no column %q", name)
		}
		if err := hashColumn(b.Columns[ci], out); err != nil {
			return nil, fmt.Errorf("column %s: %w", name, err)
		}
	}
	for i := range out {
		out[i] = fmix(out[i])
	}
	return dst, nil
}

const prime = 0x100000001b3

func mixWord(h, v uint64) uint64 { return (h ^ v) * prime }

func fmix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

func mixBytes(h uint64, b []byte) uint64 {
	h = mixWord(h, uint64(len(b)))
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// hashColumn folds column c's row values into hs (one entry per row).
func hashColumn(c bullion.ColumnData, hs []uint64) error {
	switch col := c.(type) {
	case bullion.Int64Data:
		for i, v := range col {
			hs[i] = mixWord(hs[i], uint64(v))
		}
	case bullion.BytesData:
		for i, v := range col {
			hs[i] = mixBytes(hs[i], v)
		}
	case bullion.ListInt64Data:
		for i, l := range col {
			h := mixWord(hs[i], uint64(len(l)))
			for _, v := range l {
				h = mixWord(h, uint64(v))
			}
			hs[i] = h
		}
	case bullion.ListFloat32Data:
		for i, l := range col {
			h := mixWord(hs[i], uint64(len(l)))
			for _, v := range l {
				h = mixWord(h, uint64(math.Float32bits(v)))
			}
			hs[i] = h
		}
	case bullion.ListFloat64Data:
		for i, l := range col {
			h := mixWord(hs[i], uint64(len(l)))
			for _, v := range l {
				h = mixWord(h, math.Float64bits(v))
			}
			hs[i] = h
		}
	case bullion.ListBytesData:
		for i, l := range col {
			h := mixWord(hs[i], uint64(len(l)))
			for _, v := range l {
				h = mixBytes(h, v)
			}
			hs[i] = h
		}
	case bullion.ListListInt64Data:
		for i, ll := range col {
			h := mixWord(hs[i], uint64(len(ll)))
			for _, l := range ll {
				h = mixWord(h, uint64(len(l)))
				for _, v := range l {
					h = mixWord(h, uint64(v))
				}
			}
			hs[i] = h
		}
	default:
		return fmt.Errorf("unhashed column type %T", c)
	}
	return nil
}

// zipf draws ranks in [0, n) with P(k) ~ 1/(k+1)^zipfS.
type zipf struct{ z *rand.Zipf }

// zipfS is the lookup skew: the hot head is re-read often while every
// range stays reachable. The serve cache is warmed over every range
// before timing, so the skew decides which pages lookups touch, not the
// hit ratio.
const zipfS = 1.1

func newZipf(rng *rand.Rand, n int) zipf {
	return zipf{rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }
