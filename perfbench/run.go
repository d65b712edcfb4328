package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is one workload-specific metric of the human-readable report,
// with how many samples it rests on.
type named struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// output is everything one run measured.
type output struct {
	attempted, failed int64
	errs              []string
	e2e               map[string]metric
	layer             map[string]metric
	report            []named
	// repeat holds the count metrics that must repeat exactly for a seed.
	repeat      map[string]float64
	fingerprint map[string]string
	trace       *tracer
}

func (o *output) add(w *windowResult) {
	o.attempted += w.attempted
	o.failed += w.failed
	for _, e := range w.errs {
		if len(o.errs) < maxErrs {
			o.errs = append(o.errs, e)
		}
	}
}

// run executes one workload: set-up (repeated), a deterministic probe,
// then the measured window(s).
func run(cfg config) (*output, error) {
	work := cfg.workDir()
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o := &output{
		e2e:         map[string]metric{},
		layer:       map[string]metric{},
		repeat:      map[string]float64{},
		fingerprint: fingerprint(cfg),
	}
	var err error
	if cfg.workload == "churn" {
		err = runChurn(cfg, work, o)
	} else {
		err = runRead(cfg, work, o)
	}
	if err != nil {
		return nil, err
	}
	o.report = append(o.report,
		named{Name: "failed_op_ratio", Value: div(float64(o.failed), float64(o.attempted)), Unit: "ratio", Samples: int(o.attempted)},
		named{Name: "max_rss_mb", Value: maxRSSMB(), Unit: "MB", Samples: 1, Note: "peak since start, set-up included"})
	return o, nil
}

// setup records the repeated set-up builds and checks that they
// produced identical datasets.
func (o *output) setup(times []float64, layouts []string) error {
	for _, l := range layouts[1:] {
		if l != layouts[0] {
			return fmt.Errorf("exact-repeat check failed: two set-up builds of one seed wrote different datasets:\n%s\n%s", layouts[0], l)
		}
	}
	o.e2e["setup_s"] = metric{median(times), "s"}
	o.report = append(o.report, named{Name: "setup_s", Value: median(times), Unit: "s", Samples: len(times)})
	return nil
}

// runRead runs the epoch or serve workload over the shared fixture.
func runRead(cfg config, work string, o *output) error {
	var fx *fixture
	var times []float64
	var layouts []string
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		f, err := buildFixture(filepath.Join(work, fmt.Sprintf("fixture-%d", i)), cfg.seed, cfg.sizes.fixtureParts, cfg.sizes.fixturePartRows)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		layouts = append(layouts, f.layout)
		if fx != nil {
			os.RemoveAll(fx.dir)
		}
		fx = f
	}
	if err := o.setup(times, layouts); err != nil {
		return err
	}
	storedPerRow := float64(fx.bytes) / float64(fx.rows)
	o.e2e["stored_bytes_per_row"] = metric{storedPerRow, "B/row"}
	o.repeat["stored_bytes_per_row"] = storedPerRow
	o.report = append(o.report, named{Name: "stored_bytes_per_row", Value: storedPerRow, Unit: "B/row", Samples: fx.rows})
	es, err := memberEncStats(fx.dir, fx.members)
	if err != nil {
		return err
	}
	es.sparseValues = fx.sparseValues

	io := &ioCounters{}
	if cfg.workload == "epoch" {
		return runEpoch(cfg, fx, es, io, o)
	}
	return runServe(cfg, fx, es, io, o)
}

func runEpoch(cfg config, fx *fixture, es *encStats, io *ioCounters, o *output) error {
	er, err := newEpochRun(fx, cfg.seed, io, cfg.sizes.epochCachePages)
	if err != nil {
		return err
	}
	defer er.close()
	// An epoch's rate is its live rows over its median time.
	rate := func(w *windowResult) float64 { return div(float64(fx.live)*1e3, median(w.latMs)) }
	wu := measure(o, func() *windowResult { return er.window(newTracer(false), untracedWindow(cfg)) })
	o.e2e["rows_per_s"] = metric{rate(wu), "rows/s"}
	o.e2e["p50_ms"] = metric{median(wu.latMs), "ms"}
	o.e2e["io_bytes_per_row"] = metric{div(float64(wu.io.readBytes), float64(wu.rows)), "B/row"}
	o.report = append(o.report, named{Name: "epoch_rows_per_s", Value: rate(wu), Unit: "rows/s", Samples: int(wu.attempted),
		Note: fmt.Sprintf("%d epochs of %d live rows, %d of %d columns", wu.attempted, fx.live, len(er.cols), len(fx.schema.Fields))})
	reportLatency(o, "epoch_time", wu.latMs)
	reportLatency(o, "epoch_batch_wait", wu.waitMs)
	if !cfg.trace {
		return nil
	}

	tr := newTracer(true)
	wt := measure(o, func() *windowResult { return er.window(tr, cfg.window/2) })
	o.trace = tr
	rt := newTracer(true)
	ln := rt.lane()
	replay, err := er.replay(ln)
	ln.release()
	if err != nil {
		return fmt.Errorf("epoch replay: %w", err)
	}
	rs := rt.summarize()
	l := layerInputs{
		w: wt, ts: tr.summarize(), ops: float64(wt.attempted), enc: es,
		core: replay.ScanStats, coreOps: 1, coreNextMs: rs.selfMs["core.next"],
		filesPruned: float64(replay.FilesPruned), manifestBytes: manifestBytes(fx.dir),
		overheadPct: (div(rate(wu), rate(wt)) - 1) * 100,
	}
	l.footer = parseMembers(fx.dir, fx.members)
	l.loaderNext = wt.waitMs
	l.planMs = div(wt.planMs, float64(wt.attempted))
	l.shards = div(float64(wt.shards), float64(wt.attempted))
	layerMetrics(o, l)
	return nil
}

func runServe(cfg config, fx *fixture, es *encStats, io *ioCounters, o *output) error {
	sr, err := newServeRun(fx, cfg.seed, io)
	if err != nil {
		return err
	}
	defer sr.close()
	if err := sr.warm(); err != nil {
		return err
	}
	httpPerOp, probe, err := sr.probe()
	if err != nil {
		return err
	}
	o.attempted += serveProbeOps
	rate := func(w *windowResult) float64 { return div(float64(w.attempted), w.elapsed) }
	wu := measure(o, func() *windowResult { return sr.window(newTracer(false), untracedWindow(cfg)) })
	o.e2e["rows_per_s"] = metric{median(wu.sliceRates), "rows/s"}
	o.e2e["p50_ms"] = metric{median(wu.latMs), "ms"}
	o.e2e["io_bytes_per_row"] = metric{div(float64(wu.io.readBytes), float64(wu.rows)), "B/row"}
	o.report = append(o.report, named{Name: "serve_ops_per_s", Value: rate(wu), Unit: "1/s", Samples: int(wu.attempted),
		Note: fmt.Sprintf("%d closed-loop clients, %d-row lookups", sr.clients, serveRangeRows)})
	reportLatency(o, "serve", wu.latMs)
	if !cfg.trace {
		return nil
	}

	tr := newTracer(true)
	wt := measure(o, func() *windowResult { return sr.window(tr, cfg.window/2) })
	o.trace = tr
	ts := tr.summarize()
	l := layerInputs{
		w: wt, ts: ts, ops: float64(wt.attempted), enc: es,
		core: probe.ScanStats, coreOps: serveProbeOps, coreNextMs: div(ts.selfMs["core.next"], float64(wt.attempted)),
		filesPruned: div(float64(probe.FilesPruned), serveProbeOps), manifestBytes: manifestBytes(fx.dir),
		httpPerOp:   httpPerOp,
		overheadPct: (div(rate(wu), rate(wt)) - 1) * 100,
	}
	l.footer = parseMembers(fx.dir, fx.members)
	layerMetrics(o, l)
	return nil
}

func runChurn(cfg config, work string, o *output) error {
	io := &ioCounters{}
	var c *churnRun
	var times []float64
	var layouts []string
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		cr, err := newChurnRun(filepath.Join(work, fmt.Sprintf("churn-%d", i)), cfg.seed, io)
		if err != nil {
			if c != nil {
				c.close()
			}
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		_, layout := layoutOf(cr.ds.Manifest())
		layouts = append(layouts, layout)
		if c != nil {
			c.close()
			os.RemoveAll(c.dir)
		}
		c = cr
	}
	defer c.close()
	if err := o.setup(times, layouts); err != nil {
		return err
	}

	// The probe is the first round of the seeded sequence, run untimed:
	// its counts repeat exactly for a seed.
	pes := &encStats{pages: map[string]int64{}}
	pw := c.window(newTracer(false), 0, churnProbeRounds, pes)
	o.add(pw)
	pes.sparseValues = pw.sparseValues
	storedPerRow := div(float64(pw.appendBytes), float64(pw.appendRows))
	erasePerRow := div(float64(pw.eraseWriteBytes), float64(pw.erasedRows))
	o.e2e["stored_bytes_per_row"] = metric{storedPerRow, "B/row"}
	o.e2e["io_bytes_per_row"] = metric{erasePerRow, "B/row"}
	o.repeat["stored_bytes_per_row"] = storedPerRow
	o.repeat["erase_bytes_written_per_row"] = erasePerRow
	o.report = append(o.report,
		named{Name: "stored_bytes_per_row", Value: storedPerRow, Unit: "B/row", Samples: int(pw.appendRows)},
		named{Name: "erase_bytes_written_per_row", Value: erasePerRow, Unit: "B/row", Samples: int(pw.erasedRows)})

	encodeRate := func(w *windowResult) float64 {
		return div(float64(w.appendRows+w.compactRows), w.appendSec+w.compactSec)
	}
	wu := measure(o, func() *windowResult { return c.window(newTracer(false), untracedWindow(cfg), 0, nil) })
	o.e2e["rows_per_s"] = metric{encodeRate(wu), "rows/s"}
	o.e2e["p50_ms"] = metric{median(wu.latMs), "ms"}
	o.report = append(o.report,
		named{Name: "append_rows_per_s", Value: div(float64(wu.appendRows), wu.appendSec), Unit: "rows/s", Samples: int(wu.cycles),
			Note: fmt.Sprintf("%d rounds of %d cycles", len(wu.latMs), churnRetireEvery)},
		named{Name: "compact_rows_per_s", Value: div(float64(wu.compactRows), wu.compactSec), Unit: "rows/s", Samples: int(wu.vacuums),
			Note: fmt.Sprintf("%d rows rewritten by %d compactions", wu.compactRows, wu.vacuums)})
	reportLatency(o, "round", wu.latMs)
	reportLatency(o, "erase", wu.eraseMs)

	if cfg.trace {
		tr := newTracer(true)
		wt := measure(o, func() *windowResult { return c.window(tr, cfg.window/2, 0, nil) })
		o.trace = tr
		ts := tr.summarize()
		l := layerInputs{
			w: wt, ts: ts, ops: float64(len(wt.latMs)), enc: pes,
			core: pw.scan, coreOps: churnProbeRounds, coreNextMs: div(ts.selfMs["core.next"], float64(len(wt.latMs))),
			filesPruned: div(float64(pw.filesPruned), churnProbeRounds), manifestBytes: manifestBytes(c.dir),
			overheadPct: (div(median(wt.latMs), median(wu.latMs)) - 1) * 100,
			footer:      wt.footer,
		}
		layerMetrics(o, l)
	}

	o.attempted++
	if err := c.fsck(); err != nil {
		o.failed++
		o.errs = append(o.errs, err.Error())
	}
	return nil
}

// measure runs one measured window: it first collects the garbage set-up
// and earlier windows left, then samples the resident set while the
// window runs. The first window measured sets rss_mb.
func measure(o *output, window func() *windowResult) *windowResult {
	runtime.GC()
	debug.FreeOSMemory()
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		samples := []float64{rssMB()}
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				samples = append(samples, rssMB())
			case <-stop:
				done <- samples
				return
			}
		}
	}()
	w := window()
	close(stop)
	samples := <-done
	o.add(w)
	if _, ok := o.e2e["rss_mb"]; !ok {
		o.e2e["rss_mb"] = metric{median(samples), "MB"}
		o.report = append(o.report, named{Name: "rss_mb", Value: median(samples), Unit: "MB", Samples: len(samples),
			Note: "median resident set over the measured window"})
	}
	return w
}

// rssSampleEvery is the resident-set sampling period.
const rssSampleEvery = 50 * time.Millisecond

// untracedWindow is the untraced window's length: the whole run, or half
// of it when the other half is traced.
func untracedWindow(cfg config) time.Duration {
	if cfg.trace {
		return cfg.window / 2
	}
	return cfg.window
}

// reportLatency adds p50, p90 and p99 to the report, each with the number
// of samples beyond it; a tail with fewer than ten is flagged.
func reportLatency(o *output, prefix string, lat []float64) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		beyond := int(float64(len(lat)) * (1 - p.q))
		n := named{Name: prefix + "_" + p.name + "_ms", Value: percentile(lat, p.q), Unit: "ms", Samples: len(lat)}
		n.Note = fmt.Sprintf("%d samples beyond", beyond)
		if beyond < 10 {
			n.Note += " (fewer than 10: not a stable tail)"
		}
		o.report = append(o.report, n)
	}
}

// manifestBytes is the size of the dataset's current manifest document.
func manifestBytes(dir string) float64 {
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		return 0
	}
	st, err := os.Stat(filepath.Join(dir, strings.TrimSpace(string(cur))))
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// parseMembers times one bullion.Open of every listed member's bytes.
func parseMembers(dir string, names []string) footerStat {
	var fs footerStat
	for _, n := range names {
		if err := fs.parse(filepath.Join(dir, n)); err != nil {
			return footerStat{}
		}
	}
	return fs
}
