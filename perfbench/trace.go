package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/leapfrog"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trie"
)

// span is one timed call at a layer boundary. Times are offsets from
// the start of the traced replay; Parent is the index of the span that
// caused it (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Shard  string `json:"shard,omitempty"`
}

// tracer keeps spans in memory until the replay ends. req is the id of
// the request being replayed and cur the span new trie acquisitions
// hang under (the replay is sequential; only cluster fan-out runs
// concurrently, and it passes its parent through the context).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	req   int
	cur   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSource times every trie acquisition of the wrapped source.
type tracedSource struct {
	inner leapfrog.TrieSource
	t     *tracer
}

func (s tracedSource) Trie(rel *relation.Relation, perm []int, c *stats.Counters) (*trie.Trie, error) {
	id := s.t.begin("trie.acquire", s.t.cur)
	defer s.t.end(id)
	return s.inner.Trie(rel, perm, c)
}

type parentKey struct{}

// tracedShard times every call the coordinator makes to a shard. The
// parent span travels in the context because the fan-out is concurrent.
type tracedShard struct {
	cluster.Shard
	t *tracer
}

func (s tracedShard) parent(ctx context.Context) int {
	if p, ok := ctx.Value(parentKey{}).(int); ok {
		return p
	}
	return -1
}

func (s tracedShard) begin(ctx context.Context) int {
	id := s.t.begin("cluster.shard", s.parent(ctx))
	s.t.mu.Lock()
	s.t.spans[id].Shard = s.Name()
	s.t.mu.Unlock()
	return id
}

func (s tracedShard) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	id := s.begin(ctx)
	defer s.t.end(id)
	return s.Shard.Do(ctx, req)
}

func (s tracedShard) Stream(ctx context.Context, req server.Request, header func([]string), row func([]int64) bool) (server.StreamSummary, error) {
	id := s.begin(ctx)
	defer s.t.end(id)
	return s.Shard.Stream(ctx, req, header, row)
}

// tracedHandler times the server's handler; the client passes its
// round-trip span in a header so the handler span can name its parent.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
}

const parentHeader = "X-Perfbench-Span"

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.Atoi(r.Header.Get(parentHeader))
	if err != nil {
		parent = -1
	}
	id := h.t.begin("server.handler", parent)
	defer h.t.end(id)
	h.inner.ServeHTTP(w, r)
}

// stack is one in-process copy of the workload's serving path: a single
// engine, or a coordinator over two in-process shard engines.
type stack struct {
	engines []*server.Engine
	coord   *cluster.Coordinator
	handler http.Handler
}

// newStack builds the workload's serving path over db; persistent
// workloads open their engines on dir. A non-nil tracer wraps the
// coordinator's shards.
func newStack(spec *workloadSpec, db *relation.DB, dir string, t *tracer) (*stack, error) {
	cfg := server.Config{Workers: spec.Daemon.Workers}
	s := &stack{}
	if spec.Daemon.Shards == 0 {
		var e *server.Engine
		if spec.Daemon.DataDir {
			cfg.DataDir = dir
			var err error
			if e, _, err = server.OpenEngine(cfg, func() (*relation.DB, error) { return db, nil }); err != nil {
				return nil, err
			}
		} else {
			e = server.NewEngine(db, cfg)
		}
		s.engines = []*server.Engine{e}
		s.handler = server.NewHandler(e)
		return s, nil
	}
	dbs, routing, err := cluster.Partition(db, spec.Daemon.Shards)
	if err != nil {
		return nil, err
	}
	var shards []cluster.Shard
	for i, sdb := range dbs {
		e := server.NewEngine(sdb, cfg)
		s.engines = append(s.engines, e)
		var sh cluster.Shard = cluster.NewEngineShard(fmt.Sprintf("shard-%d", i), e)
		if t != nil {
			sh = tracedShard{sh, t}
		}
		shards = append(shards, sh)
	}
	if s.coord, err = cluster.New(routing, shards, cluster.Config{}); err != nil {
		return nil, err
	}
	s.handler = cluster.NewHandler(s.coord)
	return s, nil
}

func (s *stack) close() {
	for _, e := range s.engines {
		_ = e.Close() // the replay is over; a close error changes nothing measured
	}
}

// planStats sums the plan-cache and registry counters of every engine.
func (s *stack) planStats() (server.PlanCacheStats, trie.RegistryStats, *store.Stats) {
	var p server.PlanCacheStats
	var r trie.RegistryStats
	var ps *store.Stats
	for _, e := range s.engines {
		st := e.Stats()
		p.Hits += st.Plans.Hits
		p.Misses += st.Plans.Misses
		p.Evictions += st.Plans.Evictions
		p.Invalidations += st.Plans.Invalidations
		r.Hits += st.Registry.Hits
		r.Builds += st.Registry.Builds
		r.Patches += st.Registry.Patches
		r.Bytes += st.Registry.Bytes
		ps = st.Persistence
	}
	return p, r, ps
}

// planLRU mirrors the engine's plan-cache policy for the direct core
// path: plans are compiled on a miss and evicted least recently used.
type planLRU struct {
	cap   int
	order *list.List
	items map[string]*list.Element
}

type planEntry struct {
	key  string
	plan *core.Plan
}

func newPlanLRU(capacity int) *planLRU {
	return &planLRU{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

func (l *planLRU) get(key string) *core.Plan {
	if el, ok := l.items[key]; ok {
		l.order.MoveToFront(el)
		return el.Value.(*planEntry).plan
	}
	return nil
}

func (l *planLRU) put(key string, p *core.Plan) {
	l.items[key] = l.order.PushFront(&planEntry{key, p})
	if l.order.Len() > l.cap {
		old := l.order.Back()
		l.order.Remove(old)
		delete(l.items, old.Value.(*planEntry).key)
	}
}

// traceRun is the outcome of the traced in-process replay.
type traceRun struct {
	metrics           []metric
	notes             []string
	attempted, failed int
}

// replayer drives one replay of the workload's sequence in process.
type replayer struct {
	t    *tracer // nil: untraced, product path only
	prod *stack  // behind a loopback HTTP server
	srv  *httptest.Server
	hc   *http.Client
	// Direct path (traced replay only).
	direct  *stack
	reg     *trie.Registry
	plans   *planLRU
	mirror  *relation.Store
	sdb     *store.DB
	version relation.Version

	rtt        []float64 // client round trips, µs
	answers    []string  // product-path answers, per replayed op
	streamRows int64
	streamB    int64
	userBytes  int64
	counters   stats.Counters // direct-path join accounting
	joinNS     int64
	cached     int64
	joins      int
	mismatches []string
}

func newReplayer(spec *workloadSpec, base *relation.Relation, dir string, t *tracer) (*replayer, error) {
	r := &replayer{t: t}
	prod, err := newStack(spec, relation.NewDB(base), filepath.Join(dir, "prod"), nil)
	if err != nil {
		return nil, err
	}
	r.prod = prod
	var h http.Handler = prod.handler
	if t != nil {
		h = tracedHandler{h, t}
	}
	r.srv = httptest.NewServer(h)
	r.hc = newHTTPClient(1)
	if t == nil {
		return r, nil
	}
	if r.direct, err = newStack(spec, relation.NewDB(base), filepath.Join(dir, "direct"), t); err != nil {
		r.close()
		return nil, err
	}
	r.reg = trie.NewRegistry(0)
	r.plans = newPlanLRU(server.DefaultPlanCacheSize)
	r.mirror = relation.NewStore(base)
	r.version = r.mirror.Version()
	if spec.Daemon.DataDir {
		if r.sdb, err = store.Open(filepath.Join(dir, "store")); err != nil {
			r.close()
			return nil, err
		}
		if err := r.sdb.SaveRelation("E", base, 0); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *replayer) close() {
	r.srv.Close()
	r.hc.CloseIdleConnections()
	r.prod.close()
	if r.direct != nil {
		r.direct.close()
	}
	if r.sdb != nil {
		_ = r.sdb.Close() // the replay is over
	}
}

// timed runs f inside a span named name under parent (traced replay
// only).
func (r *replayer) timed(name string, parent int, f func()) {
	id := r.t.begin(name, parent)
	f()
	r.t.end(id)
}

// replay sends ops in order until they run out or budget passes, and
// returns how many it sent.
func (r *replayer) replay(ctx context.Context, ops []*op, budget time.Duration) (int, error) {
	deadline := time.Now().Add(budget)
	for i, o := range ops {
		if time.Now().After(deadline) {
			return i, nil
		}
		if err := r.one(ctx, i, o); err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

func (r *replayer) one(ctx context.Context, i int, o *op) error {
	root := -1
	if r.t != nil {
		r.t.req = i
		root = r.t.begin("request", -1)
		defer r.t.end(root)
	}
	// Product path: one HTTP round trip over loopback.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.srv.URL+o.path(), bytes.NewReader(o.body))
	if err != nil {
		return err
	}
	rt := -1
	if r.t != nil {
		rt = r.t.begin("client.roundtrip", root)
		req.Header.Set(parentHeader, strconv.Itoa(rt))
	}
	t0 := time.Now()
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	r.rtt = append(r.rtt, float64(time.Since(t0))/float64(time.Microsecond))
	if r.t != nil {
		r.t.end(rt)
	}
	out := normalize(o, resp.StatusCode, body)
	if !out.ok {
		return fmt.Errorf("replay %s: %s", o.body, out.err)
	}
	r.answers = append(r.answers, out.answer)
	if o.Query != nil && o.Query.Mode == "stream" {
		r.streamRows += out.rows
		r.streamB += int64(out.bytes)
	}
	if r.t == nil {
		return nil
	}
	if o.Update != nil {
		return r.update(ctx, root, o, out)
	}
	return r.query(ctx, root, o, out)
}

// query replays one read through the engine (or coordinator) directly,
// then through cq, core planning and the join, checking that every
// path agrees with the HTTP answer.
func (r *replayer) query(ctx context.Context, root int, o *op, want outcome) error {
	req := *o.Query
	var count int64
	var resp *server.Response
	var err error
	var engineSum server.StreamSummary
	// Spans of the coordinator's fan-out hang under the engine span.
	eid := r.t.begin("server.engine", root)
	cctx := context.WithValue(ctx, parentKey{}, eid)
	switch {
	case req.Mode == "stream" && r.direct.coord != nil:
		engineSum, err = r.direct.coord.StreamCtx(cctx, req, func([]string) {}, func([]int64) bool { return true })
	case req.Mode == "stream":
		engineSum, err = r.direct.engines[0].StreamCtx(cctx, req, func([]string) {}, func([]int64) bool { return true })
	default:
		var res *server.Response
		if r.direct.coord != nil {
			res, err = r.direct.coord.Do(cctx, req)
		} else {
			res, err = r.direct.engines[0].DoCtx(cctx, req)
		}
		if err == nil {
			resp, count = res, res.Count
		}
	}
	r.t.end(eid)
	if err != nil {
		return fmt.Errorf("engine %s: %w", o.body, err)
	}
	if req.Mode == "stream" {
		count = engineSum.Count
	} else {
		r.timed("server.encode", root, func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			err = enc.Encode(resp)
		})
		if err != nil {
			return err
		}
	}

	var q *cq.Query
	r.timed("cq.parse", root, func() { q, err = cq.Parse(req.Query) })
	if err != nil {
		return err
	}
	db := relation.NewDB(r.version.Rel)
	key := fmt.Sprintf("%s|%d", q.String(), r.version.Num)
	plan := r.plans.get(key)
	if plan == nil {
		id := r.t.begin("core.plan", root)
		r.t.cur = id
		plan, err = core.AutoPlan(q, db, core.AutoOptions{Tries: tracedSource{r.reg, r.t}, BuildWorkers: 1})
		r.t.cur = -1
		r.t.end(id)
		if err != nil {
			return err
		}
		r.plans.put(key, plan)
	}
	var c stats.Counters
	got, cachedEntries, ns, err := execute(ctx, plan.WithCounters(&c), req, r.t, root)
	if err != nil {
		return err
	}
	r.counters.Add(&c)
	r.joinNS += ns
	r.cached += int64(cachedEntries)
	r.joins++
	// The engine's count and the direct join's must agree, and for
	// counting modes so must the HTTP answer.
	counting := req.Mode == "count" || req.Mode == "aggregate"
	if count != got || (counting && want.answer != fmt.Sprintf("c:%d", count)) {
		r.mismatches = append(r.mismatches, fmt.Sprintf("%s: http %s, engine %d, join %d", o.body, want.answer, count, got))
	}
	return nil
}

// execute runs one compiled plan the way the engine would for req's
// mode and returns the result count (for streams: rows up to the
// limit), the cache residency and the join's duration.
func execute(ctx context.Context, plan *core.Plan, req server.Request, t *tracer, parent int) (int64, int, int64, error) {
	pol := core.Policy{Workers: 1}
	var n int64
	var cachedEntries int
	var err error
	id := -1
	if t != nil {
		id = t.begin("core.join", parent)
	}
	t0 := time.Now()
	switch req.Mode {
	case "", "count":
		var res core.CountResult
		res, err = plan.CountParallelCtx(ctx, pol)
		n, cachedEntries = res.Count, res.CachedEntries
	case "aggregate":
		sr := core.CountSemiring()
		n, err = core.AggregateParallelCtx(ctx, plan, pol, sr, core.UnitWeight(sr))
	case "eval":
		var res core.EvalResult
		res, err = plan.EvalParallelCtx(ctx, pol, func([]int64) bool { n++; return true })
		cachedEntries = res.CachedEntries
	case "stream":
		var res core.EvalResult
		res, err = plan.EvalStreamCtx(ctx, pol, 1, func([]int64) bool {
			n++
			return req.Limit <= 0 || n < int64(req.Limit)
		})
		cachedEntries = res.CachedEntries
	default:
		err = fmt.Errorf("unknown mode %q", req.Mode)
	}
	ns := int64(time.Since(t0))
	if t != nil {
		t.end(id)
	}
	return n, cachedEntries, ns, err
}

// update replays one delta through the engine (or coordinator), the
// relation store and the durable store directly.
func (r *replayer) update(ctx context.Context, root int, o *op, want outcome) error {
	var res *server.UpdateResult
	var err error
	r.timed("server.engine.update", root, func() {
		if r.direct.coord != nil {
			_, err = r.direct.coord.Update(ctx, *o.Update)
			return
		}
		res, err = r.direct.engines[0].Update(*o.Update)
	})
	if err != nil {
		return err
	}
	var v relation.Version
	var changed bool
	r.timed("relation.apply_delta", root, func() {
		v, changed, err = r.mirror.ApplyDelta(o.Update.Inserts, o.Update.Deletes)
	})
	if err != nil {
		return err
	}
	r.reg.Observe(v)
	r.version = v
	if res != nil && (res.Version != v.Num || want.version != v.Num || !changed) {
		r.mismatches = append(r.mismatches, fmt.Sprintf("update: http v%d, engine v%d, mirror v%d", want.version, res.Version, v.Num))
	}
	if r.sdb == nil {
		return nil
	}
	r.userBytes += int64(len(o.Update.Inserts)+len(o.Update.Deletes)) * 16
	name := "store.wal_append"
	if !v.Patched() {
		name = "store.snapshot_write"
	}
	r.timed(name, root, func() {
		if v.Patched() {
			err = r.sdb.AppendDelta("E", v.Num, o.Update.Inserts, o.Update.Deletes)
		} else {
			err = r.sdb.SaveRelation("E", v.Rel, v.Num)
		}
	})
	return err
}

// shapeCompare times CLFTJ against LFTJ on one join-heavy shape over
// the same variable order, medians of three runs each, next to the
// paper's access counts.
func shapeCompare(ctx context.Context, db *relation.DB, shape string, reg *trie.Registry) (clftj, lftj time.Duration, cAcc, lAcc int64, err error) {
	text, mode := joinShape(shape)
	q := cq.MustParse(text)
	plan, err := core.AutoPlan(q, db, core.AutoOptions{Tries: reg, BuildWorkers: 1})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var ct, lt []float64
	var want int64 = -1
	for i := 0; i < 3; i++ {
		var c stats.Counters
		n, _, ns, err := execute(ctx, plan.WithCounters(&c), server.Request{Query: text, Mode: mode}, nil, -1)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		ct = append(ct, float64(ns))
		cAcc = c.TrieAccesses + c.HashAccesses

		var lc stats.Counters
		inst, err := leapfrog.BuildWith(q, db, plan.Order(), &lc, reg)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		lc = stats.Counters{} // count the join's accesses, not the trie fetch
		t0 := time.Now()
		ln := leapfrog.Count(inst)
		lt = append(lt, float64(time.Since(t0)))
		lAcc = lc.TrieAccesses
		if n != ln || (want >= 0 && n != want) {
			return 0, 0, 0, 0, fmt.Errorf("%s: CLFTJ counted %d, LFTJ %d", shape, n, ln)
		}
		want = n
	}
	return time.Duration(medianOf(ct)), time.Duration(medianOf(lt)), cAcc, lAcc, nil
}
