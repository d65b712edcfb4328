package bullion

// Ablation benchmarks for the design choices DESIGN.md calls out:
// cascade recursion depth (§2.6's open question), sparse restart interval,
// column reordering + coalesced reads (§2.5), and the normalized-BF16
// packing (§2.4 opportunity 2).

import (
	"fmt"
	"math/rand"
	"testing"

	"bullion/internal/core"
	"bullion/internal/enc"
	"bullion/internal/iostats"
	"bullion/internal/quant"
	"bullion/internal/sparse"
	"bullion/internal/workload"
)

// BenchmarkAblationCascadeDepth answers §2.6's "what is the ideal recursion
// depth" with measurements: deeper cascades on composite-friendly data.
func BenchmarkAblationCascadeDepth(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(43))
	vs := genBenchRuns(rng, 65536)
	raw := 8 * len(vs)
	for depth := 0; depth <= 3; depth++ {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			opts := enc.DefaultOptions()
			opts.MaxDepth = depth
			var size int
			b.SetBytes(int64(raw))
			for i := 0; i < b.N; i++ {
				encoded, err := enc.EncodeInts(nil, vs, opts)
				if err != nil {
					b.Fatal(err)
				}
				size = len(encoded)
			}
			b.ReportMetric(100*float64(size)/float64(raw), "size_%ofplain")
		})
	}
}

// BenchmarkAblationSparseRestart sweeps the restart interval: shorter
// intervals bound delta chains (cheaper partial decode) at a size cost.
func BenchmarkAblationSparseRestart(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(44))
	vectors := workload.SlidingWindows(rng, 2048, 256, 0.4)
	raw := 0
	for _, v := range vectors {
		raw += 8 * len(v)
	}
	for _, interval := range []int{8, 32, 64, 256} {
		b.Run(fmt.Sprint(interval), func(b *testing.B) {
			b.ReportAllocs()
			opts := sparse.DefaultOptions()
			opts.RestartInterval = interval
			var size int
			b.SetBytes(int64(raw))
			for i := 0; i < b.N; i++ {
				encoded, err := sparse.EncodeColumn(vectors, opts)
				if err != nil {
					b.Fatal(err)
				}
				size = len(encoded)
			}
			b.ReportMetric(100*float64(size)/float64(raw), "size_%ofplain")
		})
	}
}

// BenchmarkReorderCoalesced measures §2.5 column reordering: a 20-column
// hot set projected from a 200-column table, per read strategy.
func BenchmarkReorderCoalesced(b *testing.B) {
	b.ReportAllocs()
	const nCols = 200
	const nRows = 10000
	hot := make([]string, 20)
	for i := range hot {
		hot[i] = fmt.Sprintf("feat_%03d", i*10)
	}
	build := func(reorder bool) (*core.File, *iostats.Counters) {
		rng := rand.New(rand.NewSource(45))
		fields := make([]core.Field, nCols)
		cols := make([]core.ColumnData, nCols)
		for i := 0; i < nCols; i++ {
			fields[i] = core.Field{Name: fmt.Sprintf("feat_%03d", i), Type: core.Type{Kind: core.Int64}}
			vs := make(core.Int64Data, nRows)
			for r := range vs {
				vs[r] = rng.Int63n(1 << 20)
			}
			cols[i] = vs
		}
		schema, err := core.NewSchema(fields...)
		if err != nil {
			b.Fatal(err)
		}
		if reorder {
			reordered, perm, err := core.ReorderFields(schema, hot)
			if err != nil {
				b.Fatal(err)
			}
			schema = reordered
			cols = core.ReorderBatchColumns(cols, perm)
		}
		batch, err := core.NewBatch(schema, cols)
		if err != nil {
			b.Fatal(err)
		}
		mf := &benchFile{}
		w, err := core.NewWriter(mf, schema, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Write(batch); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		var c iostats.Counters
		c.Reset()
		f, err := core.Open(&iostats.ReaderAt{R: mf, C: &c}, mf.Size())
		if err != nil {
			b.Fatal(err)
		}
		return f, &c
	}

	for _, tc := range []struct {
		name     string
		reorder  bool
		coalesce bool
	}{
		{"scattered-naive", false, false},
		{"scattered-coalesced", false, true},
		{"hotfirst-coalesced", true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			f, c := build(tc.reorder)
			b.ResetTimer()
			var ops int64
			for i := 0; i < b.N; i++ {
				before := c.Snapshot()
				if tc.coalesce {
					if _, err := f.Project(hot...); err != nil {
						b.Fatal(err)
					}
				} else {
					// One projection per column: no two columns share a read.
					for _, name := range hot {
						if _, err := f.Project(name); err != nil {
							b.Fatal(err)
						}
					}
				}
				ops += c.Snapshot().Sub(before).ReadOps
			}
			b.ReportMetric(float64(ops)/float64(b.N), "read_ops/op")
		})
	}
}

// BenchmarkNormalizedBF16 measures the §2.4 opportunity: 12-bit packing of
// normalized embeddings vs raw BF16 and the general cascade.
func BenchmarkNormalizedBF16(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(46))
	embs := workload.Embeddings(rng, 2048, 64)
	flat := make([]float32, 0, 2048*64)
	for _, e := range embs {
		flat = append(flat, e...)
	}
	rawBF16 := 2 * len(flat)

	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(4 * len(flat)))
		var size int
		for i := 0; i < b.N; i++ {
			size = len(quant.EncodeNormalizedEmbedding(flat))
		}
		b.ReportMetric(100*float64(size)/float64(rawBF16), "size_%ofbf16")
	})
	b.Run("unpack", func(b *testing.B) {
		b.ReportAllocs()
		encoded := quant.EncodeNormalizedEmbedding(flat)
		b.SetBytes(int64(4 * len(flat)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := quant.DecodeNormalizedEmbedding(encoded); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cascade-baseline", func(b *testing.B) {
		b.ReportAllocs()
		bits, err := quant.Quantize(flat, quant.BF16)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(4 * len(flat)))
		var size int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encoded, err := enc.EncodeInts(nil, bits, enc.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			size = len(encoded)
		}
		b.ReportMetric(100*float64(size)/float64(rawBF16), "size_%ofbf16")
	})
}

// BenchmarkFooterRoundTrip measures the compact footer itself: marshal and
// zero-copy open at production widths.
func BenchmarkFooterOpen(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{1000, 10000, 20000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			mf := buildWideBullion(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Open(mf, mf.Size()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
