package main

import (
	"math"
	"path/filepath"
	"sort"
	"time"

	"bullion"
)

// windowResult is what one measured window of a workload produced.
type windowResult struct {
	attempted, failed int64
	errs              []string
	elapsed           float64 // seconds
	rows              int64   // rows emitted (epoch) or returned (serve)
	// latMs holds each op's time: an epoch, a lookup or a cycle.
	latMs []float64
	// sliceRates (serve) is the rows/s returned in each rateSlice.
	sliceRates []float64

	io      ioSnapshot
	ioStart ioSnapshot
	ioSrc   *ioCounters

	cache      bullion.CacheStats
	cacheStart bullion.CacheStats
	cacheSrc   *bullion.ArtifactCache

	scan        bullion.ScanStats
	filesPruned int64

	// waitMs (epoch) holds each Loader.Next wait.
	waitMs []float64
	planMs float64
	shards int64

	// churn
	cycles       int64
	appendRows   int64
	appendBytes  int64
	appendSec    float64
	sparseValues int64
	// enc, when set, collects the encodings of every appended member.
	enc             *encStats
	eraseMs         []float64 // each single-user Delete
	erasedRows      int64
	eraseWriteBytes int64
	compactRows     int64
	compactBytes    int64
	compactSec      float64
	retainedGens    int64
	vacuums         int64
	footer          footerStat
}

func newWindow(io *ioCounters, c *bullion.ArtifactCache) *windowResult {
	return &windowResult{ioSrc: io, ioStart: io.snapshot(), cacheSrc: c, cacheStart: c.Stats()}
}

// maxErrs bounds how many failure messages a window keeps.
const maxErrs = 5

func (w *windowResult) fail(err error) {
	w.failed++
	if len(w.errs) < maxErrs {
		w.errs = append(w.errs, err.Error())
	}
}

func (w *windowResult) finish(start time.Time) {
	w.elapsed = time.Since(start).Seconds()
	w.io = w.ioSrc.snapshot().sub(w.ioStart)
	end := w.cacheSrc.Stats()
	s := w.cacheStart
	w.cache = bullion.CacheStats{
		FooterHits: end.FooterHits - s.FooterHits, FooterMisses: end.FooterMisses - s.FooterMisses,
		HandleHits: end.HandleHits - s.HandleHits, HandleMisses: end.HandleMisses - s.HandleMisses,
		PageHits: end.PageHits - s.PageHits, PageMisses: end.PageMisses - s.PageMisses,
		PageEvictions: end.PageEvictions - s.PageEvictions, Invalidations: end.Invalidations - s.Invalidations,
	}
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the p-quantile (0..1) of xs by the nearest-rank rule.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// encStats summarizes the encodings of the named member files: pages
// per top-level scheme, compressed data bytes, and the compressed bytes
// of the sparse list<int64> columns.
type encStats struct {
	pages        map[string]int64
	dataBytes    int64
	sparseBytes  int64
	rows         int64
	sparseValues int64
}

func memberEncStats(dir string, names []string) (*encStats, error) {
	es := &encStats{pages: map[string]int64{}}
	return es, es.add(dir, names)
}

func (es *encStats) add(dir string, names []string) error {
	for _, n := range names {
		f, err := bullion.OpenPath(filepath.Join(dir, n))
		if err != nil {
			return err
		}
		st := f.Stats()
		es.rows += int64(st.NumRows)
		for _, c := range st.Columns {
			for id, n := range c.Encodings {
				es.pages[schemeName(id.String())] += int64(n)
			}
			es.dataBytes += int64(c.CompressedBytes)
			if c.Sparse {
				es.sparseBytes += int64(c.CompressedBytes)
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// schemes are the top-level page schemes reported as
// enc.pages_by_scheme.<name>; any other scheme counts as "other".
// "sparse" is the sliding-window codec's pages, which carry no
// cascade scheme id.
var schemes = []string{
	"sparse", "FixedBitWidth", "Varint", "RLE", "PlainBytes", "ChunkedBytes", "PlainFloat", "other",
}

func schemeName(s string) string {
	if s == "scheme(0)" {
		return "sparse"
	}
	for _, k := range schemes {
		if k == s {
			return s
		}
	}
	return "other"
}
