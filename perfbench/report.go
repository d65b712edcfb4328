package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"bullion"
)

// layerInputs gathers what a traced run measured for the per-layer
// metrics. Per-op values divide by ops: epochs, lookups or churn rounds.
type layerInputs struct {
	w   *windowResult
	ts  traceSummary
	ops float64
	enc *encStats
	// core holds ScanStats over coreOps ops of a deterministic sequence:
	// the epoch replay, the serve probe or the churn probe.
	core          bullion.ScanStats
	coreOps       float64
	coreNextMs    float64
	filesPruned   float64
	manifestBytes float64
	httpPerOp     float64
	overheadPct   float64
	footer        footerStat
	loaderNext    []float64
	planMs        float64
	shards        float64
}

// unattributedLimit is the reconciliation bound: the share of op wall
// time no layer span accounts for. A traced run over it fails.
const unattributedLimit = 0.10

// layerMetrics fills the per-layer metrics, by module.
func layerMetrics(o *output, l layerInputs) {
	w, ts := l.w, l.ts
	perOp := func(v float64) float64 { return div(v, l.ops) }
	perCore := func(v int64) float64 { return div(float64(v), l.coreOps) }
	m := o.layer
	m["storage.read_ops"] = metric{perOp(float64(w.io.readOps)), "count/op"}
	m["storage.read_bytes"] = metric{perOp(float64(w.io.readBytes)), "B/op"}
	m["storage.read_ms"] = metric{perOp(ts.busyMs["storage.read"]), "ms/op"}
	m["storage.http_requests_per_op"] = metric{l.httpPerOp, "count/op"}
	m["storage.write_bytes"] = metric{perOp(float64(w.io.writeBytes)), "B/op"}
	m["storage.sync_ops"] = metric{perOp(float64(w.io.syncOps)), "count/op"}
	m["storage.syncdir_ops"] = metric{perOp(float64(w.io.syncDirOps)), "count/op"}
	m["storage.rename_ops"] = metric{perOp(float64(w.io.renameOps)), "count/op"}

	c := w.cache
	m["cache.footer_hit_ratio"] = metric{ratio(c.FooterHits, c.FooterMisses), "ratio"}
	m["cache.handle_hit_ratio"] = metric{ratio(c.HandleHits, c.HandleMisses), "ratio"}
	m["cache.page_hit_ratio"] = metric{ratio(c.PageHits, c.PageMisses), "ratio"}
	m["cache.page_evictions"] = metric{perOp(float64(c.PageEvictions)), "count/op"}
	m["cache.invalidations"] = metric{perOp(float64(c.Invalidations)), "count/op"}

	m["footer.parse_us"] = metric{div(float64(l.footer.ns)/1e3, float64(l.footer.parses)), "us"}
	m["footer.bytes"] = metric{div(float64(l.footer.bytes), float64(l.footer.parses)), "B"}

	m["core.next_self_ms"] = metric{l.coreNextMs, "ms/op"}
	m["core.pages_decoded"] = metric{perCore(l.core.PagesDecoded), "count/op"}
	m["core.pages_skipped"] = metric{perCore(l.core.PagesSkipped), "count/op"}
	m["core.read_ops"] = metric{perCore(l.core.ReadOps), "count/op"}
	m["core.coalesced_bytes"] = metric{perCore(l.core.CoalescedBytes), "B/op"}
	m["core.wasted_bytes"] = metric{perCore(l.core.WastedBytes), "B/op"}

	m["enc.encode_self_ms"] = metric{perOp(ts.selfMs["enc.encode"]), "ms/op"}
	for _, s := range schemes {
		m["enc.pages_by_scheme."+s] = metric{float64(l.enc.pages[s]), "count"}
		o.repeat["enc.pages_by_scheme."+s] = float64(l.enc.pages[s])
	}
	m["enc.compressed_bytes"] = metric{div(float64(l.enc.dataBytes), float64(l.enc.rows)), "B/row"}
	m["sparse.bytes_per_value"] = metric{div(float64(l.enc.sparseBytes), float64(l.enc.sparseValues)), "B/value"}

	m["dataset.open_self_ms"] = metric{perOp(ts.selfMs["dataset.open"]), "ms/op"}
	m["dataset.files_pruned"] = metric{l.filesPruned, "count/op"}
	m["dataset.manifest_bytes"] = metric{l.manifestBytes, "B"}
	m["dataset.commit_self_ms"] = metric{perOp(ts.selfMs["dataset.commit"]), "ms/op"}
	m["dataset.compact_bytes_rewritten"] = metric{perOp(float64(w.compactBytes)), "B/op"}
	m["dataset.retained_generations"] = metric{div(float64(w.retainedGens), float64(w.vacuums)), "count"}

	m["loader.plan_ms"] = metric{l.planMs, "ms/op"}
	m["loader.next_wait_p50_ms"] = metric{percentile(l.loaderNext, 0.5), "ms"}
	m["loader.next_wait_p90_ms"] = metric{percentile(l.loaderNext, 0.9), "ms"}
	m["loader.shards_per_epoch"] = metric{l.shards, "count"}

	m["bench.check_self_ms"] = metric{perOp(ts.selfMs["bench.check"] + ts.selfMs["bench.gen"]), "ms/op"}
	m["trace.overhead_pct"] = metric{l.overheadPct, "%"}
	m["trace.unattributed_pct"] = metric{100 * div(ts.selfMs["bench.op"], ts.wallMs), "%"}
	m["trace.spans_per_op"] = metric{perOp(float64(ts.spans)), "count/op"}

	o.repeat["storage.http_requests_per_op"] = l.httpPerOp
	o.repeat["core.pages_decoded"] = m["core.pages_decoded"].Value
	o.attempted++
	if u := div(ts.selfMs["bench.op"], ts.wallMs); u > unattributedLimit {
		o.failed++
		o.errs = append(o.errs, fmt.Sprintf("trace reconciliation: %.1f%% of op wall time is outside every layer span (limit %.0f%%)",
			100*u, 100*unattributedLimit))
	}
}

// print writes the human-readable report: fingerprint, the workload's
// named metrics with sample counts, and for traced runs the per-layer
// table with self times and the tracing overhead.
func (o *output) print(w io.Writer, cfg config) {
	fp, _ := json.Marshal(o.fingerprint)
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed\n", cfg.workload, cfg.seed, o.attempted, o.failed)
	for _, e := range o.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	for _, n := range o.report {
		fmt.Fprintf(w, "  %-32s %14.4f %-7s n=%d %s\n", n.Name, n.Value, n.Unit, n.Samples, n.Note)
	}
	if cfg.trace {
		fmt.Fprintf(w, "per-layer (traced window; tracing overhead %.1f%%):\n", o.layer["trace.overhead_pct"].Value)
		for _, k := range sortedKeys(o.layer) {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, o.layer[k].Value, o.layer[k].Unit)
		}
		ts := o.trace.summarize()
		ops := float64(ts.ops)
		fmt.Fprintf(w, "self time by layer, ms per op (sums to the op wall time, %.3f ms):\n", div(ts.wallMs, ops))
		for _, k := range sortedKeys(ts.selfMs) {
			fmt.Fprintf(w, "  %-20s %10.3f  (%.1f%%)\n", k, div(ts.selfMs[k], ops), 100*div(ts.selfMs[k], ts.wallMs))
		}
	}
}

// line is the result object printed as the last line of stdout.
func (o *output) line(trace bool) map[string]any {
	metrics := o.e2e
	if trace {
		metrics = o.layer
	}
	return map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	}
}

// resultsDir holds each run's full record and span dump.
func (c config) resultsDir() string {
	return filepath.Join(c.root, ".bench_build", "perfbench", "results")
}

// save writes the run's full record, and for traced runs every span as
// one JSON line, under .bench_build/perfbench/results.
func (o *output) save(cfg config) error {
	dir := cfg.resultsDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d-%d", cfg.workload, cfg.seed, btoi(cfg.trace), os.Getpid())
	rec, err := json.MarshalIndent(map[string]any{
		"fingerprint": o.fingerprint, "report": o.report, "end_to_end": o.e2e,
		"per_layer": o.layer, "repeat": o.repeat, "attempted": o.attempted,
		"failed": o.failed, "failures": o.errs,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), rec, 0o644); err != nil {
		return err
	}
	if o.trace == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, base+"-spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	o.trace.mu.Lock()
	for i, s := range o.trace.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"op":%d,"async":%t}`+"\n",
			i, s.name, s.start, s.end, s.parent, s.op, s.async)
	}
	o.trace.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkRepeat compares the run's exact-repeat counts with an earlier run
// of the same sources, workload, seed and trace mode, if one was
// recorded, and fails loudly on any difference; otherwise it records
// them.
func checkRepeat(cfg config, o *output) error {
	dir := filepath.Join(cfg.root, ".bench_build", "perfbench", "repeat")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-trace%d.json",
		o.fingerprint["source_digest"][:16], cfg.workload, cfg.seed, btoi(cfg.trace)))
	if prev, err := os.ReadFile(path); err == nil {
		var want map[string]float64
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("exact-repeat record %s: %w", path, err)
		}
		if diff := repeatDiff(want, o.repeat); diff != "" {
			return fmt.Errorf("EXACT-REPEAT CHECK FAILED for %s seed %d: count metrics differ from an earlier run of the same code:%s",
				cfg.workload, cfg.seed, diff)
		}
		return nil
	}
	data, err := json.Marshal(o.repeat)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func repeatDiff(want, got map[string]float64) string {
	var b strings.Builder
	for _, k := range sortedKeys(want) {
		if g, ok := got[k]; !ok || g != want[k] {
			fmt.Fprintf(&b, "\n  %s: earlier %v, now %v", k, want[k], got[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			fmt.Fprintf(&b, "\n  %s: not in the earlier run", k)
		}
	}
	return b.String()
}

// fingerprint identifies the machine, toolchain, sources and seed.
func fingerprint(cfg config) map[string]string {
	return map[string]string{
		"cpu":           cpuModel(),
		"nproc":         fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":    fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":            runtime.Version(),
		"git_commit":    cfg.gitCommit,
		"source_digest": sourceDigest(cfg.root),
		"seed":          fmt.Sprint(cfg.seed),
		"workload":      cfg.workload,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and module file of the checkout
// (build outputs and dot-directories excluded), identifying the code a
// result was measured on even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
