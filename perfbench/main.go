// Command perfbench is the repository's benchmark: a load generator
// that builds a seeded workload, starts real cltjd daemons on it,
// drives them over loopback HTTP, checks every answer against an
// in-process oracle and prints the end-to-end metrics. With -trace 1 it
// also replays the same seeded sequence in process, timing each layer
// from outside through wrappers around its public entry points, and
// prints the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds cltjd
// and this harness first:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Workload parameters and the reasons for each workload are in
// workloads.json; README.md describes the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"repro/internal/server"
)

func main() {
	workloadFlag := flag.String("workload", "", "workload name from workloads.json, or all")
	seedFlag := flag.Int64("seed", 1, "workload seed: the same seed gives the same data and request sequence")
	secondsFlag := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1: also run the traced in-process replay and print per-layer metrics")
	binFlag := flag.String("cltjd", "", "cltjd binary")
	workFlag := flag.String("work", "", "scratch directory (created, removed afterwards)")
	tracesFlag := flag.String("traces", "", "directory the traced run writes its spans to (JSON lines)")
	flag.Parse()
	if err := run(*workloadFlag, *seedFlag, *secondsFlag, *traceFlag == 1, *binFlag, *workFlag, *tracesFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed int64, seconds float64, trace bool, bin, work, traces string) error {
	bs, err := loadSpec()
	if err != nil {
		return err
	}
	if bin == "" || work == "" {
		return fmt.Errorf("-cltjd and -work are required (run.sh sets them)")
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if n := runtime.NumCPU(); bs.MaxConns > n {
		bs.MaxConns = n
	}
	names := []string{name}
	if name == "all" {
		names = bs.names()
	} else if bs.Workloads[name] == nil {
		return fmt.Errorf("unknown workload %q (have %v)", name, bs.names())
	}
	res := result{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, n := range names {
		dir := filepath.Join(work, n+"-"+strconv.Itoa(os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		cfg := runConfig{bin: bin, work: dir, seconds: seconds, seed: seed}
		ms, attempted, failed, err := runWorkload(bs, bs.Workloads[n], cfg, trace, traces)
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		res.Attempted += attempted
		res.Failed += failed
		for _, m := range ms {
			key := m.name
			if name == "all" {
				key = n + "." + m.name
			}
			res.Metrics[key] = jsonMetric{m.value, m.unit}
		}
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runWorkload runs one workload and prints its report; it returns the
// metrics that go into the JSON line.
func runWorkload(bs *benchSpec, spec *workloadSpec, cfg runConfig, trace bool, traces string) ([]metric, int, int, error) {
	mainDur, satDur := cfg.phases(bs)
	w, err := generate(spec, cfg.seed, mainDur, satDur)
	if err != nil {
		return nil, 0, 0, err
	}
	texts := make(map[string]bool)
	for _, o := range w.ops {
		if o.Query != nil {
			texts[o.Query.Query] = true
		}
	}
	fmt.Printf("== %s  seed=%d  graph=%d nodes/%d edges  ops=%d (%d distinct query texts, plan cache %d)  loop=%s\n",
		spec.name, cfg.seed, w.graph.N, w.graph.NumEdges(), len(w.ops), len(texts), server.DefaultPlanCacheSize, spec.Loop)
	sr, err := runSocket(bs, w, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	printMetrics("end to end (untraced, over loopback HTTP)", sr.e2e)
	printMetrics("workload-specific and validity guards", sr.extra)
	fmt.Println("  closed-loop latency by shape (saturation phase)")
	for _, l := range sr.shapes {
		fmt.Println("    " + l)
	}
	for _, n := range sr.notes {
		fmt.Println("  note:", n)
	}
	if !trace {
		return sr.e2e, sr.attempted, sr.failed, nil
	}
	tr, err := runTrace(bs, w, cfg, sr, traces)
	if err != nil {
		return nil, 0, 0, err
	}
	printMetrics("per layer (traced in-process replay)", tr.metrics)
	for _, n := range tr.notes {
		fmt.Println("  note:", n)
	}
	return tr.metrics, sr.attempted + tr.attempted, sr.failed + tr.failed, nil
}

func printMetrics(title string, ms []metric) {
	fmt.Println("  " + title)
	for _, m := range ms {
		fmt.Printf("    %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
}
