// Command perfbench is the repository's seeded end-to-end benchmark. It
// runs one of three workloads over the paper's Table-1 ads schema against
// the public bullion API — epoch (training loader epochs over a dataset
// larger than the cache), serve (feature lookups over loopback HTTP from
// a warm cache) and churn (ingest, single-user erasures, compaction) —
// checks every result against the generator, and prints the metrics
// named in BENCHMARK.json as the last line of standard output.
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --smoke
//
// With --trace 0 the last line carries the end-to-end metrics of an
// untraced window. With --trace 1 it carries the per-layer metrics: the
// run measures an untraced half-window, then a traced one whose spans
// (kept in memory, written out at exit) give each layer's self time.
// See perfbench/README.md for the workloads and the metric-to-layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its fixture; setup_s is
// the median, and the builds must agree exactly (same seed, same bytes).
const setupRepeats = 3

func main() {
	workload := flag.String("workload", "", "workload: epoch, serve or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every workload at tiny sizes and check every metric and validation")
	gitCommit := flag.String("git-commit", "unknown", "commit of the measured sources, for the fingerprint")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *smoke {
		if err := runSmoke(root, *gitCommit); err != nil {
			fatal(err)
		}
		return
	}
	if *workload != "epoch" && *workload != "serve" && *workload != "churn" {
		fatal(fmt.Errorf("unknown workload %q (want epoch, serve or churn)", *workload))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		sizes:     fullSizes,
		root:      root,
		gitCommit: *gitCommit,
	}
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := checkRepeat(cfg, out); err != nil {
		fatal(err)
	}
	out.print(os.Stdout, cfg)
	if err := out.save(cfg); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out.line(cfg.trace))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// findRoot returns the checkout root: the directory holding
// BENCHMARK.json and the bullion module's go.mod.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, f := range []string{"BENCHMARK.json", "go.mod", "bullion.go"} {
		if _, err := os.Stat(filepath.Join(wd, f)); err != nil {
			return "", fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return wd, nil
}

// sizes scales a run. fullSizes is the benchmark proper; smoke mode
// shrinks everything so all three workloads finish in seconds.
type sizes struct {
	fixtureParts, fixturePartRows int
	epochCachePages               int64
}

var fullSizes = sizes{fixtureParts: 8, fixturePartRows: 1024, epochCachePages: epochCachePages}

type config struct {
	workload  string
	seed      int64
	window    time.Duration
	trace     bool
	sizes     sizes
	root      string
	gitCommit string
}

func (c config) workDir() string {
	return filepath.Join(c.root, ".bench_build", "perfbench", fmt.Sprintf("work-%s-%d", c.workload, os.Getpid()))
}

// rssMB is the process's current resident set, in MiB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// maxRSSMB is the process's peak resident set, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
