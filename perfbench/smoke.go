package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// smokeSizes shrinks the read fixture so a smoke run takes seconds.
var smokeSizes = sizes{fixtureParts: 3, fixturePartRows: 512, epochCachePages: 256 << 10}

// runSmoke runs every workload twice, traced, at tiny sizes and checks
// that every metric BENCHMARK.json names is emitted, every validation
// passed, the exact-repeat counts agree between the two runs, the trace
// reconciles, and the cache behaves as each workload intends.
func runSmoke(root, gitCommit string) error {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var problems []string
	for _, wl := range spec.Workloads {
		var first *output
		for rep := 0; rep < 2; rep++ {
			cfg := config{workload: wl.Name, seed: 7, window: 2 * time.Second, trace: true, sizes: smokeSizes, root: root, gitCommit: gitCommit}
			o, err := run(cfg)
			if err != nil {
				return fmt.Errorf("smoke %s: %w", wl.Name, err)
			}
			o.print(os.Stdout, cfg)
			bad := func(format string, args ...any) {
				problems = append(problems, fmt.Sprintf("%s: ", wl.Name)+fmt.Sprintf(format, args...))
			}
			if o.failed != 0 {
				bad("%d of %d ops failed: %v", o.failed, o.attempted, o.errs)
			}
			for _, m := range spec.EndToEnd {
				if v, ok := o.e2e[m.Name]; !ok || v.Value <= 0 {
					bad("end-to-end metric %s missing or not positive", m.Name)
				}
			}
			for _, m := range spec.PerLayer {
				if _, ok := o.layer[m.Name]; !ok {
					bad("per-layer metric %s missing", m.Name)
				}
			}
			switch wl.Name {
			case "serve":
				if r := o.layer["cache.page_hit_ratio"].Value; r < 0.99 {
					bad("warm cache page hit ratio %.3f, want about 1", r)
				}
			case "epoch":
				if e := o.layer["cache.page_evictions"].Value; e <= 0 {
					bad("no page evictions although the dataset exceeds the cache")
				}
			}
			if first == nil {
				first = o
			} else if d := repeatDiff(first.repeat, o.repeat); d != "" {
				bad("exact-repeat counts differ between two runs of seed 7:%s", d)
			}
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "smoke:", p)
		}
		return fmt.Errorf("smoke: %d problems", len(problems))
	}
	fmt.Println("smoke: all workloads emitted every metric and passed every check")
	return nil
}
