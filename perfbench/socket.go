package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
)

// endToEnd names the end-to-end metrics runSocket reports, in order;
// BENCHMARK.json lists the same.
var endToEnd = []string{
	"setup_s", "query_p50_ms", "queries_per_s",
	"server_cpu_ms_per_req", "server_peak_rss_mb",
}

// subPhaseMin and subPhaseMax bound the sub-phases the latency
// percentiles are taken over (see latencySummary).
const subPhaseMin, subPhaseMax = 1000, 5

// rateWindows is how many windows a phase is split into for its
// throughput figures (see windowRate).
const rateWindows = 5

// runConfig is what one harness invocation was asked to do.
type runConfig struct {
	bin     string // the cltjd binary
	work    string // scratch directory for this run (removed afterwards)
	seconds float64
	seed    int64
}

// phases splits the measured time into the main and saturation phases.
func (c runConfig) phases(bs *benchSpec) (main, sat time.Duration) {
	total := time.Duration(c.seconds * float64(time.Second))
	sat = time.Duration(float64(total) * bs.SaturationShare)
	return total - sat, sat
}

// metric is one named, unit-carrying number of a report.
type metric struct {
	name  string
	value float64
	unit  string
}

// socketRun is the outcome of the socket-level (untraced) run.
type socketRun struct {
	e2e       []metric // the end-to-end metrics named in BENCHMARK.json
	extra     []metric // workload-specific metrics and validity guards
	attempted int
	failed    int
	notes     []string
	shapes    []string // per-shape latency lines of the saturation phase
}

func (r *socketRun) add(to *[]metric, name string, v float64, unit string) {
	*to = append(*to, metric{name, v, unit})
}

// fleetArgs returns the cltjd argument lists of a workload's fleet:
// shard daemons first, the entry daemon (coordinator, if any) last.
func fleetArgs(spec *workloadSpec, graphPath, dataDir string) [][]string {
	base := []string{"-data", graphPath, "-workers", strconv.Itoa(spec.Daemon.Workers)}
	if spec.Daemon.Shards == 0 {
		if spec.Daemon.DataDir {
			base = append(base, "-data-dir", dataDir)
		}
		return [][]string{base}
	}
	var out [][]string
	for i := 0; i < spec.Daemon.Shards; i++ {
		out = append(out, append(append([]string(nil), base...), "-shard", fmt.Sprintf("%d/%d", i, spec.Daemon.Shards)))
	}
	return append(out, []string{"-coordinator"}) // -shards is filled in once the shard addresses are known
}

// startFleet starts the workload's daemons and waits until every one
// is ready.
func startFleet(ctx context.Context, spec *workloadSpec, bin, graphPath, dataDir, logPath string, hc *http.Client) (*fleet, error) {
	f := &fleet{}
	var shardAddrs []string
	for _, args := range fleetArgs(spec, graphPath, dataDir) {
		if args[0] == "-coordinator" {
			args = append(args, "-shards", strings.Join(shardAddrs, ","))
		}
		d, err := startDaemon(bin, args, spec.Daemon.GOMAXPROCS, logPath)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, d)
		if err := d.waitReady(ctx, hc); err != nil {
			f.stop()
			return nil, err
		}
		shardAddrs = append(shardAddrs, d.addr)
	}
	f.entry = f.procs[len(f.procs)-1]
	return f, nil
}

// warmupOps is one op per distinct (shape, mode) of the sequence:
// the set-up pass that compiles every query shape once. Updates are
// left out; they would change the data before the measured phase.
func warmupOps(ops []*op) []*op {
	seen := make(map[string]bool)
	var out []*op
	for _, o := range ops {
		if o.Query == nil {
			continue
		}
		k := o.Shape + "/" + o.Query.Mode
		if !seen[k] {
			seen[k] = true
			out = append(out, o)
		}
	}
	return out
}

// setUp starts the fleet and runs the warm-up pass, returning the fleet
// and the time from spawning the first daemon to the end of warm-up.
func setUp(ctx context.Context, w *workload, cfg runConfig, graphPath, dataDir string, hc *http.Client) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(ctx, w.spec, cfg.bin, graphPath, dataDir, filepath.Join(cfg.work, "cltjd.log"), hc)
	if err != nil {
		return nil, 0, err
	}
	exec := httpExecutor(hc, f.entry.addr)
	for _, o := range warmupOps(w.ops) {
		if out := exec(ctx, 0, o); !out.ok {
			f.stop()
			return nil, 0, fmt.Errorf("warm-up %s: %s", o.body, out.err)
		}
	}
	return f, time.Since(t0), nil
}

// runSocket is the untraced end-to-end run: real cltjd daemons over
// loopback HTTP, every answer checked.
func runSocket(bs *benchSpec, w *workload, cfg runConfig) (*socketRun, error) {
	ctx := context.Background()
	spec := w.spec
	r := &socketRun{}
	graphPath := filepath.Join(cfg.work, "graph.txt")
	gf, err := os.Create(graphPath)
	if err != nil {
		return nil, err
	}
	if err := writeEdges(gf, w.graph); err != nil {
		gf.Close()
		return nil, err
	}
	if err := gf.Close(); err != nil {
		return nil, err
	}
	base := w.graph.EdgeRelation("E", false)

	// Answers of the seeded sequence, computed before any daemon runs.
	var or *oracle
	if spec.name != "read-write" {
		or = newOracle(relation.NewDB(base), spec.Daemon.Workers)
		for _, o := range append(append([]*op(nil), w.ops...), w.sat...) {
			if _, err := or.answer(o); err != nil {
				return nil, err
			}
		}
	}

	hc := newHTTPClient(bs.MaxConns)
	defer hc.CloseIdleConnections()
	var setups []float64
	var f *fleet
	var dataDir string
	for i := 0; i < bs.SetupRepeats; i++ {
		dataDir = filepath.Join(cfg.work, fmt.Sprintf("data-%d", i))
		fl, d, err := setUp(ctx, w, cfg, graphPath, dataDir, hc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < bs.SetupRepeats-1 {
			fl.stop()
			continue
		}
		f = fl
	}
	defer f.stop()
	sort.Float64s(setups)
	r.add(&r.e2e, "setup_s", setups[len(setups)/2], "s")

	mainDur, satDur := cfg.phases(bs)
	exec := httpExecutor(hc, f.entry.addr)
	cpu0, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, ticks0 := cpuTicks()
	var mainP *phase
	if spec.Loop == "closed" {
		mainP = closedLoop(ctx, w.ops, true, spec.Clients, mainDur, exec)
	} else {
		mainP = openLoop(ctx, w.ops, bs.MaxConns, exec)
	}
	satP := closedLoop(ctx, w.sat, spec.name != "read-write", bs.MaxConns, satDur, exec)
	cpu1, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	steal1, ticks1 := cpuTicks()
	rss, err := f.peakRSS()
	if err != nil {
		return nil, err
	}

	// Answer checks (outside the timed phases).
	all := append(append([]sample(nil), mainP.samples...), satP.samples...)
	var m *mirror
	if or != nil {
		if _, err := checkAgainst(or, all); err != nil {
			return nil, err
		}
	} else {
		var updates []sample
		for _, s := range all {
			if s.op.Update != nil {
				updates = append(updates, s)
			}
		}
		if m, err = newMirror(base, updates); err != nil {
			return nil, err
		}
		if _, err := m.checkReads(all); err != nil {
			return nil, err
		}
	}
	// checkAgainst and checkReads marked wrong answers in all; copy the
	// verdicts back so the latency summaries count them as failed.
	copy(mainP.samples, all[:len(mainP.samples)])
	copy(satP.samples, all[len(mainP.samples):])

	completed := 0
	for _, s := range all {
		r.attempted++
		if s.out.ok {
			completed++
		} else {
			r.failed++
			if r.failed <= 3 {
				r.notes = append(r.notes, fmt.Sprintf("failed %s %s: %s", s.op.path(), s.op.body, s.out.err))
			}
		}
	}
	isRead := func(s *sample) bool { return s.op.Query != nil }
	isUpdate := func(s *sample) bool { return s.op.Update != nil }
	reads := latencies(mainP.samples, isRead)
	pooled99, _ := tailQuantile(reads, 0.99, 10)
	p50, p99, pEff, parts := latencySummary(mainP.samples, isRead, subPhaseMin, subPhaseMax)
	if pEff < 0.99 {
		r.notes = append(r.notes, fmt.Sprintf("query tail: only %d reads, reporting p%.2f instead of p99", len(reads), 100*pEff))
	}
	phaseMS := float64(mainP.elapsed) / float64(time.Millisecond)
	r.add(&r.e2e, "query_p50_ms", finite(p50, phaseMS), "ms")
	r.add(&r.e2e, "queries_per_s", float64(len(reads)-failedReads(mainP.samples))/mainP.elapsed.Seconds(), "1/s")
	r.add(&r.e2e, "server_cpu_ms_per_req", float64(cpu1-cpu0)/float64(time.Millisecond)/float64(max(completed, 1)), "ms")
	r.add(&r.e2e, "server_peak_rss_mb", float64(rss)/(1<<20), "MiB")

	r.add(&r.extra, "query_p99_ms", finite(p99, phaseMS), "ms")
	r.add(&r.extra, "saturation_qps", windowRate(satP.samples, satP.elapsed, rateWindows, isRead), "1/s")
	r.add(&r.extra, "query_samples", float64(len(reads)), "count")
	r.add(&r.extra, "query_subphases", float64(parts), "count")
	r.add(&r.extra, "query_p99_pooled_ms", finite(pooled99, phaseMS), "ms")
	r.add(&r.extra, "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	if ticks1 > ticks0 {
		r.add(&r.extra, "machine.steal_frac", float64(steal1-steal0)/float64(ticks1-ticks0), "ratio")
	}
	r.shapes = shapeBreakdown(satP.samples)
	if spec.Loop == "open" {
		lag := durationsMS(mainP.lag)
		lagP99, _ := tailQuantile(lag, 0.99, 10)
		r.add(&r.extra, "loadgen.lag_p99_ms", finite(lagP99, phaseMS), "ms")
		r.add(&r.extra, "loadgen.backlog_max", float64(mainP.backlogMax), "count")
		if over := mainP.elapsed - mainDur; over > mainDur/10 {
			r.notes = append(r.notes, fmt.Sprintf("invalid open loop: the backlog took %s to drain", over.Round(time.Millisecond)))
		}
	}
	if m != nil {
		upd := latencies(mainP.samples, isUpdate)
		up99, _ := tailQuantile(upd, 0.99, 10)
		r.add(&r.extra, "update_p50_ms", finite(quantile(upd, 0.5), phaseMS), "ms")
		r.add(&r.extra, "update_p99_ms", finite(up99, phaseMS), "ms")
		r.add(&r.extra, "update_samples", float64(len(upd)), "count")
		compactions := 0
		for _, s := range all {
			if s.out.compact {
				compactions++
			}
		}
		r.add(&r.extra, "compactions", float64(compactions), "count")
		if compactions == 0 {
			r.notes = append(r.notes, "read-write never crossed the compaction crossover")
		}
		size, err := dirBytes(dataDir)
		if err != nil {
			return nil, err
		}
		live := m.final().Rel.Len() * 2 * 8
		r.add(&r.extra, "store_bytes_per_user_byte", float64(size)/float64(live), "ratio")
		restart, bad, err := durability(ctx, w, cfg, f, m, hc, graphPath, dataDir)
		if err != nil {
			return nil, err
		}
		r.add(&r.extra, "store.restart_s", restart.Seconds(), "s")
		r.attempted += bad[0]
		r.failed += bad[1]
		if bad[1] > 0 {
			r.notes = append(r.notes, fmt.Sprintf("durability check: %d of %d probes failed", bad[1], bad[0]))
		}
	}
	return r, nil
}

// durability kills the persistent daemon with SIGKILL, restarts it on
// the same data directory and checks that every acknowledged update is
// visible: the full edge stream and every read shape must match the
// mirror's final version. It returns the restart time and the probe
// counts (attempted, failed); f's process is replaced by the restarted
// one.
func durability(ctx context.Context, w *workload, cfg runConfig, f *fleet, m *mirror, hc *http.Client, graphPath, dataDir string) (time.Duration, [2]int, error) {
	var bad [2]int
	f.entry.kill()
	t0 := time.Now()
	d, err := startDaemon(cfg.bin, fleetArgs(w.spec, graphPath, dataDir)[0], w.spec.Daemon.GOMAXPROCS, filepath.Join(cfg.work, "cltjd.log"))
	if err != nil {
		return 0, bad, err
	}
	f.procs[len(f.procs)-1], f.entry = d, d
	if err := d.waitReady(ctx, hc); err != nil {
		return 0, bad, err
	}
	restart := time.Since(t0)

	fin := m.final()
	ref := newOracle(relation.NewDB(fin.Rel), w.spec.Daemon.Workers)
	probes := []*op{newQueryOp("edges", server.Request{Query: "E(x,y)", Mode: "stream"})}
	for _, shape := range weighted(w.spec.Shapes) {
		probes = append(probes, newQueryOp(shape, server.Request{Query: pointShape(shape, 0), Mode: "count"}))
	}
	exec := httpExecutor(hc, d.addr)
	for _, p := range probes {
		bad[0]++
		out := exec(ctx, 0, p)
		want, err := ref.answer(p)
		if err != nil {
			return 0, bad, err
		}
		if !out.ok || out.answer != want || (out.versions != nil && out.versions["E"] != fin.Num) {
			bad[1]++
		}
	}
	return restart, bad, nil
}

// shapeBreakdown summarizes closed-loop latency per (shape, mode): a
// reading aid for the report, not a gated metric.
func shapeBreakdown(s []sample) []string {
	by := make(map[string][]sample)
	for _, x := range s {
		k := x.op.Shape
		if x.op.Query != nil {
			k += "/" + x.op.Query.Mode
		}
		by[k] = append(by[k], x)
	}
	var keys []string
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		lat := latencies(by[k], func(*sample) bool { return true })
		out = append(out, fmt.Sprintf("%-22s n=%-6d p50=%8.3f ms  p99=%8.3f ms", k, len(lat), quantile(lat, 0.5), quantile(lat, 0.99)))
	}
	return out
}

func failedReads(s []sample) int {
	n := 0
	for i := range s {
		if s[i].op.Query != nil && !s[i].out.ok {
			n++
		}
	}
	return n
}

// finite replaces an infinite latency (a failed request) by the length
// of the phase it failed in: it missed every limit.
func finite(v, phaseMS float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return phaseMS
	}
	return v
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
