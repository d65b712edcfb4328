package main

import (
	"fmt"
	"io"
	"time"

	"bullion"
)

// Epoch workload parameters. The loader projects epochColumns (16 of 81
// columns) through a private cache whose page budget is well below the
// projected bytes of one epoch, so every epoch evicts and re-reads.
const (
	epochShardRows  = 512
	epochBatchRows  = 256
	epochCachePages = 1 << 20
)

// epochRun streams closed-loop Loader epochs over the fixture, one
// consumer, a fresh shuffle seed per epoch. Each epoch opens a fresh
// dataset handle, as a job that picks up new commits between epochs
// does; the private cache outlives the handles.
type epochRun struct {
	fx      *fixture
	seed    int64
	io      *ioCounters
	backend *tracedBackend
	cache   *bullion.ArtifactCache
	cols    []string
	hasher  rowHasher
	epochs  int
}

func newEpochRun(fx *fixture, seed int64, io *ioCounters, cachePages int64) (*epochRun, error) {
	local, err := bullion.NewLocalBackend(fx.dir)
	if err != nil {
		return nil, err
	}
	e := &epochRun{
		fx:      fx,
		seed:    seed,
		io:      io,
		backend: &tracedBackend{inner: local, c: io, t: newTracer(false)},
		cache:   bullion.NewCache(bullion.CacheOptions{PageBytes: cachePages}),
		cols:    epochColumns(fx.schema),
	}
	e.hasher = rowHasher{e.cols}
	if fx.bytes < 2*cachePages {
		return nil, fmt.Errorf("epoch: dataset is %d bytes, want at least twice the %d-byte page cache", fx.bytes, cachePages)
	}
	return e, nil
}

func (e *epochRun) close() { e.cache.Close() }

// open opens a dataset handle over the fixture through the counting
// backend and the private cache.
func (e *epochRun) open(ln *lane) (*bullion.Dataset, error) {
	s := ln.begin("dataset.open")
	defer ln.end(s)
	return bullion.OpenDataset(e.fx.dir, &bullion.DatasetOptions{Backend: e.backend, Cache: e.cache})
}

// window runs whole epochs until d has passed (at least one).
func (e *epochRun) window(tr *tracer, d time.Duration) *windowResult {
	e.backend.t = tr
	ln := tr.lane()
	defer ln.release()
	w := newWindow(e.io, e.cache)
	start := time.Now()
	var hs []uint64
	for w.attempted == 0 || time.Since(start) < d {
		op := ln.beginOp("epoch.op")
		w.attempted++
		t0 := time.Now()
		rows, sum, plan, shards, err := e.epoch(ln, &hs, &w.waitMs)
		w.latMs = append(w.latMs, msOf(time.Since(t0)))
		ln.end(op)
		w.rows += int64(rows)
		w.planMs += plan
		w.shards += int64(shards)
		switch {
		case err != nil:
			w.fail(err)
		case rows != e.fx.live || sum != e.fx.epochSum:
			w.fail(fmt.Errorf("epoch %d emitted %d rows with hash %x, want %d rows with hash %x",
				e.epochs, rows, sum, e.fx.live, e.fx.epochSum))
		}
	}
	w.finish(start)
	return w
}

// epoch streams one shuffled epoch and returns its row count and
// order-independent row-hash sum.
func (e *epochRun) epoch(ln *lane, hs *[]uint64, lat *[]float64) (rows int, sum uint64, planMs float64, shards int, err error) {
	ds, err := e.open(ln)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer func() {
		s := ln.begin("dataset.close")
		ds.Close()
		ln.end(s)
	}()
	s := ln.begin("loader.new")
	l, err := bullion.NewLoader(ds, bullion.LoaderOptions{
		Columns:   e.cols,
		Seed:      mixSeed(e.seed, int64(1000+e.epochs)),
		ShardRows: epochShardRows,
		BatchRows: epochBatchRows,
	})
	ln.end(s)
	e.epochs++
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer func() {
		s := ln.begin("loader.close")
		l.Close()
		ln.end(s)
	}()
	for {
		s := ln.begin("loader.next")
		t0 := time.Now()
		b, err := l.Next()
		dt := time.Since(t0)
		ln.end(s)
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, sum, 0, 0, err
		}
		*lat = append(*lat, msOf(dt))
		c := ln.begin("bench.check")
		*hs, err = e.hasher.hashRows(b, (*hs)[:0])
		for _, h := range *hs {
			sum += h
		}
		rows += len(*hs)
		ln.end(c)
		if err != nil {
			return rows, sum, 0, 0, err
		}
	}
	return rows, sum, msOf(l.Stats().PlanTime), l.NumShards(), nil
}

// replay scans one epoch's shard plan — the same member-bounded row
// ranges, projection and batch size the loader streams, in manifest
// order — through the dataset scanner, whose ScanStats the Loader does
// not expose. Its counts are deterministic for a given fixture.
func (e *epochRun) replay(ln *lane) (bullion.DatasetScanStats, error) {
	var total bullion.DatasetScanStats
	ds, err := e.open(ln)
	if err != nil {
		return total, err
	}
	defer ds.Close()
	var start uint64
	for _, f := range ds.Manifest().Files {
		for lo := uint64(0); lo < f.Rows && f.LiveRows > 0; lo += epochShardRows {
			hi := min(lo+epochShardRows, f.Rows)
			st, err := drainScan(ln, ds, e.cols, start+lo, start+hi, epochBatchRows)
			if err != nil {
				return total, err
			}
			addScanStats(&total.ScanStats, st.ScanStats)
			total.FilesPruned += st.FilesPruned
		}
		start += f.Rows
	}
	return total, nil
}

// drainScan scans rows [lo, hi) of the projection and discards them.
func drainScan(ln *lane, ds *bullion.Dataset, cols []string, lo, hi uint64, batchRows int) (bullion.DatasetScanStats, error) {
	s := ln.begin("dataset.scan")
	sc, err := ds.Scan(bullion.DatasetScanOptions{
		ScanOptions:     bullion.ScanOptions{Columns: cols, BatchRows: batchRows, Range: &bullion.RowRange{Lo: lo, Hi: hi}},
		FileConcurrency: 1,
	})
	ln.end(s)
	if err != nil {
		return bullion.DatasetScanStats{}, err
	}
	defer sc.Close()
	for {
		s := ln.begin("core.next")
		_, err := sc.Next()
		ln.end(s)
		if err == io.EOF {
			return sc.Stats(), nil
		}
		if err != nil {
			return bullion.DatasetScanStats{}, err
		}
	}
}

func addScanStats(dst *bullion.ScanStats, src bullion.ScanStats) {
	dst.BytesRead += src.BytesRead
	dst.PagesDecoded += src.PagesDecoded
	dst.PagesSkipped += src.PagesSkipped
	dst.BatchesEmitted += src.BatchesEmitted
	dst.BatchesSkipped += src.BatchesSkipped
	dst.RowsEmitted += src.RowsEmitted
	dst.ReadOps += src.ReadOps
	dst.CoalescedBytes += src.CoalescedBytes
	dst.WastedBytes += src.WastedBytes
}
