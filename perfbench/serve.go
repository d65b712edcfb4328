package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"bullion"
)

// Serve workload parameters: each lookup reads serveRangeRows rows of
// serveColumns, its range drawn Zipf-skewed over the fixture; a private
// cache several times the dataset's size is warmed before timing. The
// range size, column count and skew (zipfS) are assumptions, not taken
// from the paper or a published trace.
const (
	serveRangeRows  = 32
	serveCachePages = 64 << 20
	serveProbeOps   = 64
)

// serveRun serves the fixture over loopback HTTP (DatasetHTTPHandler)
// and runs closed-loop lookups against it through NewHTTPBackend.
type serveRun struct {
	fx       *fixture
	seed     int64
	io       *ioCounters
	srv      *http.Server
	served   chan error
	url      string
	backend  *tracedBackend
	cache    *bullion.ArtifactCache
	cols     []string
	hasher   rowHasher
	hotOrder []int // Zipf rank -> range index
	clients  int
	ops      int64 // lookups issued so far, across windows
}

func newServeRun(fx *fixture, seed int64, io *ioCounters) (*serveRun, error) {
	local, err := bullion.NewLocalBackend(fx.dir)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &serveRun{
		fx:      fx,
		seed:    seed,
		io:      io,
		srv:     &http.Server{Handler: countRequests(bullion.DatasetHTTPHandler(local), io)},
		served:  make(chan error, 1),
		url:     "http://" + lis.Addr().String() + "/",
		cache:   bullion.NewCache(bullion.CacheOptions{PageBytes: serveCachePages}),
		cols:    serveColumns(fx.schema),
		clients: min(2, runtime.NumCPU()),
	}
	go func() { r.served <- r.srv.Serve(lis) }()
	r.hasher = rowHasher{r.cols}
	if fx.bytes >= serveCachePages {
		r.close()
		return nil, fmt.Errorf("serve: dataset is %d bytes, larger than the %d-byte cache", fx.bytes, serveCachePages)
	}
	hb, err := bullion.NewHTTPBackend(r.url, nil)
	if err != nil {
		r.close()
		return nil, err
	}
	r.backend = &tracedBackend{inner: hb, c: io, t: newTracer(false)}
	r.hotOrder = rand.New(rand.NewSource(mixSeed(seed, -2))).Perm(fx.rows / serveRangeRows)
	return r, nil
}

// close stops the server and waits for it to exit.
func (r *serveRun) close() {
	r.srv.Close()
	<-r.served
	r.cache.Close()
}

// warm reads every range once so the timed lookups find footers, handles
// and pages in the cache.
func (r *serveRun) warm() error {
	ln := newTracer(false).lane()
	var got, want []uint64
	for i := range r.hotOrder {
		if err := r.lookup(ln, i, &got, &want, nil); err != nil {
			return fmt.Errorf("serve warm-up: %w", err)
		}
	}
	return nil
}

// probe runs the first serveProbeOps lookups of a fixed sequence on one
// client and returns their HTTP requests and scan counts per lookup,
// which repeat exactly for a seed.
func (r *serveRun) probe() (float64, bullion.DatasetScanStats, error) {
	ln := newTracer(false).lane()
	z := newZipf(rand.New(rand.NewSource(mixSeed(r.seed, -3))), len(r.hotOrder))
	before := r.io.snapshot()
	var st bullion.DatasetScanStats
	var got, want []uint64
	for i := 0; i < serveProbeOps; i++ {
		var ps bullion.DatasetScanStats
		if err := r.lookup(ln, r.hotOrder[z.next()], &got, &want, &ps); err != nil {
			return 0, st, fmt.Errorf("serve probe: %w", err)
		}
		addScanStats(&st.ScanStats, ps.ScanStats)
		st.FilesPruned += ps.FilesPruned
	}
	d := r.io.snapshot().sub(before)
	return float64(d.httpRequests) / serveProbeOps, st, nil
}

// window runs r.clients closed-loop clients for d.
func (r *serveRun) window(tr *tracer, d time.Duration) *windowResult {
	r.backend.t = tr
	w := newWindow(r.io, r.cache)
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var completions []completion
	for c := 0; c < r.clients; c++ {
		rng := rand.New(rand.NewSource(mixSeed(r.seed, 2000+r.ops+int64(c))))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln := tr.lane()
			defer ln.release()
			z := newZipf(rng, len(r.hotOrder))
			var got, want []uint64
			var lat []float64
			var attempted, rows int64
			var errs []error
			var done []completion
			for attempted == 0 || time.Since(start) < d {
				op := ln.beginOp("serve.op")
				t0 := time.Now()
				err := r.lookup(ln, r.hotOrder[z.next()], &got, &want, nil)
				lat = append(lat, msOf(time.Since(t0)))
				ln.end(op)
				attempted++
				rows += int64(len(got))
				done = append(done, completion{time.Since(start), len(got)})
				if err != nil {
					errs = append(errs, err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			w.attempted += attempted
			w.rows += rows
			w.latMs = append(w.latMs, lat...)
			completions = append(completions, done...)
			for _, err := range errs {
				w.fail(err)
			}
		}()
	}
	wg.Wait()
	r.ops += int64(r.clients)
	w.finish(start)
	w.sliceRates = sliceRates(completions, w.elapsed)
	return w
}

// completion is one finished lookup: when, and how many rows it returned.
type completion struct {
	at   time.Duration
	rows int
}

// rateSlice is the period the serve window's row rate is sampled over.
const rateSlice = 250 * time.Millisecond

// sliceRates returns the rows per second returned in each whole
// rateSlice of the window.
func sliceRates(cs []completion, elapsed float64) []float64 {
	n := int(elapsed / rateSlice.Seconds())
	rows := make([]float64, n)
	for _, c := range cs {
		if i := int(c.at / rateSlice); i < n {
			rows[i] += float64(c.rows)
		}
	}
	for i := range rows {
		rows[i] /= rateSlice.Seconds()
	}
	return rows
}

// lookup is one serve op: open the dataset over HTTP, scan the range's
// rows of the serve projection, close, and check the rows against the
// generator. got is left holding the returned rows' hashes.
func (r *serveRun) lookup(ln *lane, rangeIdx int, got, want *[]uint64, stats *bullion.DatasetScanStats) (err error) {
	lo := rangeIdx * serveRangeRows
	hi := lo + serveRangeRows
	*got = (*got)[:0]
	s := ln.begin("dataset.open")
	ds, err := bullion.OpenDataset(r.url, &bullion.DatasetOptions{Backend: r.backend, Cache: r.cache})
	ln.end(s)
	if err != nil {
		return err
	}
	defer func() {
		s := ln.begin("dataset.close")
		cerr := ds.Close()
		ln.end(s)
		err = errors.Join(err, cerr)
	}()
	s = ln.begin("dataset.scan")
	sc, err := ds.Scan(bullion.DatasetScanOptions{
		ScanOptions:     bullion.ScanOptions{Columns: r.cols, Range: &bullion.RowRange{Lo: uint64(lo), Hi: uint64(hi)}},
		FileConcurrency: 1,
	})
	ln.end(s)
	if err != nil {
		return err
	}
	for {
		s := ln.begin("core.next")
		b, err := sc.Next()
		ln.end(s)
		if err == io.EOF {
			break
		}
		if err != nil {
			sc.Close()
			return err
		}
		c := ln.begin("bench.check")
		*got, err = r.hasher.hashRows(b, *got)
		ln.end(c)
		if err != nil {
			sc.Close()
			return err
		}
	}
	if stats != nil {
		*stats = sc.Stats()
	}
	s = ln.begin("dataset.close")
	err = sc.Close()
	ln.end(s)
	if err != nil {
		return err
	}
	*want = r.fx.liveServeHashes(lo, hi, *want)
	if len(*got) != len(*want) {
		return fmt.Errorf("lookup [%d,%d): %d rows, want %d", lo, hi, len(*got), len(*want))
	}
	for i := range *want {
		if (*got)[i] != (*want)[i] {
			return fmt.Errorf("lookup [%d,%d): row %d differs from the generator's", lo, hi, i)
		}
	}
	return nil
}
