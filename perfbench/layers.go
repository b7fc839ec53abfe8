package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/relation"
	"repro/internal/trie"
)

// joinShapes are the join-heavy shapes reported one by one.
var joinShapes = []string{"cycle4", "path4", "path5", "lollipop"}

// perLayer lists every per-layer metric in output order, with its unit.
// A workload that does not exercise a layer reports its metrics as 0
// (the layer did no work); workloads.json names the workload each
// metric belongs to.
func perLayer() []metric {
	ms := []metric{
		{"loadgen.lag_p99_ms", 0, "ms"},
		{"loadgen.backlog_max", 0, "count"},
		{"server.http_self_us", 0, "us"},
		{"server.encode_us", 0, "us"},
		{"server.ndjson_bytes_per_row", 0, "B/row"},
		{"server.engine_us", 0, "us"},
		{"server.update_us", 0, "us"},
		{"server.plancache_hit_ratio", 0, "ratio"},
		{"server.plancache_lookups", 0, "count"},
		{"server.plancache_evictions", 0, "count"},
		{"server.plancache_invalidations", 0, "count"},
		{"cq.parse_us", 0, "us"},
		{"core.plan_us", 0, "us"},
		{"core.plans_compiled", 0, "count"},
		{"trie.acquire_us", 0, "us"},
		{"trie.registry_hit_ratio", 0, "ratio"},
		{"trie.registry_lookups", 0, "count"},
		{"trie.builds", 0, "count"},
		{"trie.patches", 0, "count"},
		{"trie.resident_bytes", 0, "B"},
		{"core.join_us", 0, "us"},
		{"core.joins", 0, "count"},
		{"core.cache_hit_ratio", 0, "ratio"},
		{"core.cache_lookups", 0, "count"},
		{"core.cache_inserts", 0, "count"},
		{"core.cached_entries", 0, "count"},
		{"core.hash_accesses", 0, "count"},
		{"core.ns_per_access", 0, "ns"},
	}
	for _, s := range joinShapes {
		ms = append(ms,
			metric{"core.join_us." + s, 0, "us"},
			metric{"leapfrog.lftj_us." + s, 0, "us"},
			metric{"core.vs_lftj." + s, 0, "ratio"},
			metric{"core.accesses." + s, 0, "count"},
			metric{"leapfrog.trie_accesses." + s, 0, "count"},
			metric{"core.vs_lftj_accesses." + s, 0, "ratio"},
			metric{"core.disagree." + s, 0, "flag"},
		)
	}
	return append(ms,
		metric{"relation.apply_delta_us", 0, "us"},
		metric{"store.wal_append_us", 0, "us"},
		metric{"store.wal_bytes_per_user_byte", 0, "ratio"},
		metric{"store.user_bytes", 0, "B"},
		metric{"store.snapshot_writes", 0, "count"},
		metric{"store.trie_writes", 0, "count"},
		metric{"store.restart_s", 0, "s"},
		metric{"cluster.coord_self_us", 0, "us"},
		metric{"cluster.shard_us_max", 0, "us"},
		metric{"cluster.merge_rows_per_s", 0, "1/s"},
		metric{"cluster.route_cache_hit_ratio", 0, "ratio"},
		metric{"cluster.route_lookups", 0, "count"},
		metric{"cluster.retries", 0, "count"},
		metric{"trace.untraced_rtt_us", 0, "us"},
		metric{"trace.traced_rtt_us", 0, "us"},
		metric{"trace.overhead_us", 0, "us"},
		metric{"trace.spans", 0, "count"},
	)
}

// runTrace replays the start of the workload's seeded sequence in
// process twice: traced (product path behind a loopback HTTP server,
// then the same request through each layer's entry point directly) and
// untraced (product path only, on a fresh stack). Per-layer metrics
// come from the traced replay's spans and counters; the loadgen and
// restart metrics come from the socket run sr.
func runTrace(bs *benchSpec, w *workload, cfg runConfig, sr *socketRun, traceDir string) (*traceRun, error) {
	ctx := context.Background()
	base := w.graph.EdgeRelation("E", false)
	mainDur, _ := cfg.phases(bs)
	tr := &traceRun{}
	vals := make(map[string]float64)
	for _, m := range sr.extra {
		vals[m.name] = m.value
	}

	t := newTracer()
	traced, err := newReplayer(w.spec, base, filepath.Join(cfg.work, "traced"), t)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	n, err := traced.replay(ctx, w.ops, mainDur/2)
	if err != nil {
		return nil, err
	}
	untraced, err := newReplayer(w.spec, base, filepath.Join(cfg.work, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	defer untraced.close()
	if _, err := untraced.replay(ctx, w.ops[:n], time.Hour); err != nil {
		return nil, err
	}

	// Answer checks: both product paths must agree op by op, and every
	// direct layer path must agree with the product path.
	tr.attempted = 2 * n
	for i := 0; i < n; i++ {
		if untraced.answers[i] != traced.answers[i] {
			tr.failed++
			tr.notes = append(tr.notes, fmt.Sprintf("traced and untraced replays disagree on %s", w.ops[i].body))
		}
	}
	tr.failed += len(traced.mismatches)
	for i, m := range traced.mismatches {
		if i < 3 {
			tr.notes = append(tr.notes, "layer mismatch: "+m)
		}
	}

	sp := spanIndex(t.spans)
	vals["server.http_self_us"] = sp.selfUS("client.roundtrip", "server.handler")
	vals["server.encode_us"] = sp.meanUS("server.encode")
	if traced.streamRows > 0 {
		vals["server.ndjson_bytes_per_row"] = float64(traced.streamB) / float64(traced.streamRows)
	}
	vals["server.engine_us"] = sp.meanUS("server.engine")
	vals["server.update_us"] = sp.meanUS("server.engine.update")
	plans, reg, ps := traced.direct.planStats()
	if look := plans.Hits + plans.Misses; look > 0 {
		vals["server.plancache_hit_ratio"] = float64(plans.Hits) / float64(look)
		vals["server.plancache_lookups"] = float64(look)
	}
	vals["server.plancache_evictions"] = float64(plans.Evictions)
	vals["server.plancache_invalidations"] = float64(plans.Invalidations)
	vals["cq.parse_us"] = sp.meanUS("cq.parse")
	vals["core.plan_us"] = sp.meanUS("core.plan")
	vals["core.plans_compiled"] = float64(sp.count("core.plan"))
	vals["trie.acquire_us"] = sp.meanUS("trie.acquire")
	if look := reg.Hits + reg.Builds; look > 0 {
		vals["trie.registry_hit_ratio"] = float64(reg.Hits) / float64(look)
		vals["trie.registry_lookups"] = float64(look)
	}
	vals["trie.builds"] = float64(reg.Builds)
	vals["trie.patches"] = float64(reg.Patches)
	vals["trie.resident_bytes"] = float64(reg.Bytes)

	c := traced.counters
	vals["core.join_us"] = sp.meanUS("core.join")
	vals["core.joins"] = float64(traced.joins)
	if look := c.CacheHits + c.CacheMisses; look > 0 {
		vals["core.cache_hit_ratio"] = float64(c.CacheHits) / float64(look)
		vals["core.cache_lookups"] = float64(look)
	}
	vals["core.cache_inserts"] = float64(c.CacheInserts)
	if traced.joins > 0 {
		vals["core.cached_entries"] = float64(traced.cached) / float64(traced.joins)
		vals["core.hash_accesses"] = float64(c.HashAccesses) / float64(traced.joins)
	}
	if acc := c.TrieAccesses + c.HashAccesses; acc > 0 {
		vals["core.ns_per_access"] = float64(traced.joinNS) / float64(acc)
	}
	if w.spec.name == "join-heavy" {
		reg := trie.NewRegistry(0)
		db := relation.NewDB(base)
		for _, s := range joinShapes {
			ct, lt, ca, la, err := shapeCompare(ctx, db, s, reg)
			if err != nil {
				return nil, err
			}
			vals["core.join_us."+s] = float64(ct) / float64(time.Microsecond)
			vals["leapfrog.lftj_us."+s] = float64(lt) / float64(time.Microsecond)
			vals["core.vs_lftj."+s] = float64(ct) / float64(lt)
			vals["core.accesses."+s] = float64(ca)
			vals["leapfrog.trie_accesses."+s] = float64(la)
			vals["core.vs_lftj_accesses."+s] = float64(ca) / float64(la)
			if (ct > lt) != (ca > la) {
				vals["core.disagree."+s] = 1
				tr.notes = append(tr.notes, fmt.Sprintf("%s: wall clock and access counts disagree: CLFTJ/LFTJ time %.2f, accesses %.2f",
					s, float64(ct)/float64(lt), float64(ca)/float64(la)))
			}
		}
	}

	vals["relation.apply_delta_us"] = sp.meanUS("relation.apply_delta")
	vals["store.wal_append_us"] = sp.meanUS("store.wal_append")
	if traced.sdb != nil && traced.userBytes > 0 {
		vals["store.wal_bytes_per_user_byte"] = float64(traced.sdb.Stats().WALAppendBytes) / float64(traced.userBytes)
		vals["store.user_bytes"] = float64(traced.userBytes)
	}
	if ps != nil {
		vals["store.snapshot_writes"] = float64(ps.SnapshotWrites)
		vals["store.trie_writes"] = float64(ps.TrieWrites)
	}

	probe, err := clusterLayer(ctx, bs, w, cfg, mainDur/4, traceDir, vals)
	if err != nil {
		return nil, err
	}
	tr.attempted += probe.attempted
	tr.failed += probe.failed
	tr.notes = append(tr.notes, probe.notes...)

	ut, tt := medianOf(untraced.rtt), medianOf(traced.rtt)
	vals["trace.untraced_rtt_us"] = ut
	vals["trace.traced_rtt_us"] = tt
	vals["trace.overhead_us"] = tt - ut
	vals["trace.spans"] = float64(len(t.spans))

	tr.notes = append(tr.notes, fmt.Sprintf("traced replay: %d ops, %d spans", n, len(t.spans)))
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.spec.name, w.seed))
		if err := t.write(path); err != nil {
			return nil, err
		}
		tr.notes = append(tr.notes, "spans written to "+path)
	}
	for _, m := range perLayer() {
		m.value = vals[m.name]
		tr.metrics = append(tr.metrics, m)
	}
	return tr, nil
}

// clusterLayer measures the cluster layer for every workload: it
// replays the scatter-gather sequence of the same seed through an
// in-process coordinator over two traced shard engines, for budget, and
// fills the cluster.* metrics. Workloads that serve from one daemon
// have no coordinator of their own, and this keeps the layer measured
// on each of them.
func clusterLayer(ctx context.Context, bs *benchSpec, w *workload, cfg runConfig, budget time.Duration, traceDir string, vals map[string]float64) (*traceRun, error) {
	mainDur, satDur := cfg.phases(bs)
	sg, err := generate(bs.Workloads["scatter-gather"], w.seed, mainDur, satDur)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	r, err := newReplayer(sg.spec, sg.graph.EdgeRelation("E", false), filepath.Join(cfg.work, "cluster"), t)
	if err != nil {
		return nil, err
	}
	defer r.close()
	n, err := r.replay(ctx, sg.ops, budget)
	if err != nil {
		return nil, err
	}
	sp := spanIndex(t.spans)
	self, shardMax, retries := sp.fanOut()
	vals["cluster.coord_self_us"] = self
	vals["cluster.shard_us_max"] = shardMax
	vals["cluster.retries"] = float64(retries)
	if d := sp.streamEngineNS(sg.ops[:n]); d > 0 {
		vals["cluster.merge_rows_per_s"] = float64(r.streamRows) / (float64(d) / 1e9)
	}
	st, err := r.direct.coord.Stats(ctx)
	if err != nil {
		return nil, err
	}
	if look := st.Routes.Hits + st.Routes.Misses; look > 0 {
		vals["cluster.route_cache_hit_ratio"] = float64(st.Routes.Hits) / float64(look)
		vals["cluster.route_lookups"] = float64(look)
	}
	out := &traceRun{attempted: n, failed: len(r.mismatches)}
	out.notes = append(out.notes, fmt.Sprintf("cluster layer: %d scatter-gather ops of seed %d through an in-process coordinator, %d spans", n, w.seed, len(t.spans)))
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-cluster.jsonl", w.spec.name, w.seed))
		if err := t.write(path); err != nil {
			return nil, err
		}
		out.notes = append(out.notes, "cluster spans written to "+path)
	}
	for i, m := range r.mismatches {
		if i < 3 {
			out.notes = append(out.notes, "cluster layer mismatch: "+m)
		}
	}
	return out, nil
}

// spans indexes a finished trace for the per-layer summaries.
type spans struct {
	all      []span
	children map[int][]int
}

func spanIndex(all []span) *spans {
	s := &spans{all: all, children: make(map[int][]int)}
	for i, x := range all {
		if x.Parent >= 0 {
			s.children[x.Parent] = append(s.children[x.Parent], i)
		}
	}
	return s
}

func (s *spans) count(name string) int {
	n := 0
	for _, x := range s.all {
		if x.Name == name {
			n++
		}
	}
	return n
}

// meanUS is the mean duration of the named spans in µs (0 if none).
func (s *spans) meanUS(name string) float64 {
	var sum int64
	n := 0
	for _, x := range s.all {
		if x.Name == name {
			sum += x.End - x.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// selfUS is the mean self time in µs of the named spans that have a
// child of the given name: the span minus its children of that name.
func (s *spans) selfUS(name, child string) float64 {
	var sum int64
	n := 0
	for i, x := range s.all {
		if x.Name != name {
			continue
		}
		d := x.End - x.Start
		for _, c := range s.children[i] {
			if s.all[c].Name == child {
				d -= s.all[c].End - s.all[c].Start
			}
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// fanOut summarizes coordinator executions: mean coordinator self time
// (engine span minus its slowest shard span) and slowest shard span in
// µs, and the shard calls beyond one per shard and request.
func (s *spans) fanOut() (selfUS, shardMaxUS float64, retries int) {
	var selfSum, maxSum int64
	n := 0
	for i, x := range s.all {
		if x.Name != "server.engine" {
			continue
		}
		var slowest int64
		seen := make(map[string]bool)
		for _, c := range s.children[i] {
			cs := s.all[c]
			if cs.Name != "cluster.shard" {
				continue
			}
			if seen[cs.Shard] {
				retries++
			}
			seen[cs.Shard] = true
			slowest = max(slowest, cs.End-cs.Start)
		}
		if len(seen) == 0 {
			continue
		}
		selfSum += x.End - x.Start - slowest
		maxSum += slowest
		n++
	}
	if n == 0 {
		return 0, 0, retries
	}
	return float64(selfSum) / float64(n) / 1e3, float64(maxSum) / float64(n) / 1e3, retries
}

// streamEngineNS is the total duration of the engine spans of streaming
// requests among ops.
func (s *spans) streamEngineNS(ops []*op) int64 {
	var d int64
	for _, x := range s.all {
		if x.Name == "server.engine" && ops[x.Req].Query != nil && ops[x.Req].Query.Mode == "stream" {
			d += x.End - x.Start
		}
	}
	return d
}
