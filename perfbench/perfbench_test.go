package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	bs, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// fingerprint renders everything a workload hands the program: the
// edge-list bytes and the request sequence with its schedule.
func fingerprint(t *testing.T, w *workload) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeEdges(&b, w.graph); err != nil {
		t.Fatal(err)
	}
	for _, ops := range [][]*op{w.ops, w.sat} {
		for _, o := range ops {
			fmt.Fprintf(&b, "%d %s %s\n", o.Due, o.path(), o.body)
		}
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	bs := testSpec(t)
	for _, name := range bs.names() {
		spec := bs.Workloads[name]
		gen := func(seed int64) []byte {
			w, err := generate(spec, seed, 2*time.Second, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.ops) == 0 {
				t.Fatalf("%s: empty sequence", name)
			}
			return fingerprint(t, w)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

func TestReadWriteUpdatesAlwaysApply(t *testing.T) {
	bs := testSpec(t)
	w, err := generate(bs.Workloads["read-write"], 3, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Every delta must have a net effect in any order: deletes are
	// distinct original edges and inserts distinct non-edges.
	orig := make(map[[2]int64]bool)
	for _, e := range w.graph.Edges {
		orig[e] = true
	}
	seen := make(map[[2]int64]bool)
	updates := 0
	for _, o := range append(append([]*op(nil), w.ops...), w.sat...) {
		if o.Update == nil {
			continue
		}
		updates++
		for _, d := range o.Update.Deletes {
			e := [2]int64{d[0], d[1]}
			if !orig[e] || seen[e] {
				t.Fatalf("delete %v is not a fresh original edge", e)
			}
			seen[e] = true
		}
		for _, ins := range o.Update.Inserts {
			e := [2]int64{ins[0], ins[1]}
			if orig[e] || seen[e] {
				t.Fatalf("insert %v is not a fresh non-edge", e)
			}
			seen[e] = true
		}
	}
	if updates == 0 {
		t.Fatal("read-write generated no updates")
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	// 1000 samples: the p99 rank (990) has exactly 10 beyond it.
	if v, p := tailQuantile(seq(1000), 0.99, 10); v != 990 || p != 0.99 {
		t.Errorf("n=1000: got %v at p%v, want 990 at p0.99", v, p)
	}
	// 500 samples: p99 would leave 5 beyond, so fall back to rank 490.
	v, p := tailQuantile(seq(500), 0.99, 10)
	if v != 490 || p != 0.98 {
		t.Errorf("n=500: got %v at p%v, want 490 at p0.98", v, p)
	}
	// Every fallback leaves exactly minBeyond samples beyond.
	for n := 11; n < 2000; n += 37 {
		s := seq(n)
		v, _ := tailQuantile(s, 0.99, 10)
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: only %d samples beyond %v", n, beyond, v)
		}
	}
	if v, _ := tailQuantile(seq(10), 0.99, 10); !math.IsNaN(v) {
		t.Errorf("n=10: got %v, want NaN (no rank has 10 beyond)", v)
	}
	if q := quantile(seq(9), 0.5); q != 5 {
		t.Errorf("median of 1..9 = %v", q)
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const gap, stall = 10 * time.Millisecond, 200 * time.Millisecond
	var ops []*op
	for i := 0; i < 30; i++ {
		o := newQueryOp("x", server.Request{Query: "E(x,y)"})
		o.Due = time.Duration(i) * gap
		ops = append(ops, o)
	}
	// One connection; the first request stalls, the rest are instant.
	exec := func(_ context.Context, _ int, o *op) outcome {
		if o == ops[0] {
			time.Sleep(stall)
		}
		return outcome{ok: true}
	}
	p := openLoop(context.Background(), ops, 1, exec)
	for i, s := range p.samples {
		// Every request due during the stall completes no earlier than
		// the stall's end, so its latency counts the wait from its due
		// time, not from when the generator finally sent it.
		if due := ops[i].Due; due < stall {
			if want := stall - due; s.lat < want {
				t.Errorf("op %d due at %v: latency %v, want at least %v", i, due, s.lat, want)
			}
		}
	}
	if p.backlogMax < 5 {
		t.Errorf("backlog max %d, want the stall to queue the requests behind it", p.backlogMax)
	}
	// A closed loop, by contrast, times from send.
	c := closedLoop(context.Background(), ops[1:], false, 1, time.Second, exec)
	for _, s := range c.samples {
		if s.lat > stall/2 {
			t.Errorf("closed loop charged %v to an instant request", s.lat)
		}
	}
}

// wrongCount answers every count query one too high.
type wrongCount struct{ inner http.Handler }

func (h wrongCount) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &captureWriter{header: http.Header{}}
	h.inner.ServeHTTP(rec, r)
	var resp map[string]any
	if err := json.Unmarshal(rec.body.Bytes(), &resp); err == nil {
		resp["count"] = resp["count"].(float64) + 1
		w.WriteHeader(rec.status)
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	w.WriteHeader(rec.status)
	_, _ = w.Write(rec.body.Bytes())
}

type captureWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (c *captureWriter) Header() http.Header         { return c.header }
func (c *captureWriter) Write(b []byte) (int, error) { return c.body.Write(b) }
func (c *captureWriter) WriteHeader(s int)           { c.status = s }

func TestWrongAnswersCountAsFailed(t *testing.T) {
	db := relation.NewDB(relation.MustNew("E", 2, [][]int64{{1, 2}, {2, 3}, {1, 3}, {3, 4}}))
	or := newOracle(db, 1)
	fake := wrongCount{server.NewHandler(server.NewEngine(db, server.Config{Workers: 1}))}
	honest := server.NewHandler(server.NewEngine(db, server.Config{Workers: 1}))
	ops := []*op{
		newQueryOp("tri", server.Request{Query: "E(x,y), E(y,z), E(x,z)", Mode: "count"}),
		newQueryOp("hop2", server.Request{Query: "E(1,y), E(y,z)", Mode: "count"}),
	}
	run := func(h http.Handler) float64 {
		var s []sample
		for _, o := range ops {
			s = append(s, sample{op: o, out: serveInProcess(h, o)})
		}
		wrong, err := checkAgainst(or, s)
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, x := range s {
			if !x.out.ok {
				failed++
			}
		}
		if failed != wrong {
			t.Fatalf("%d failed but %d wrong", failed, wrong)
		}
		return float64(failed) / float64(len(s))
	}
	if f := run(honest); f != 0 {
		t.Errorf("honest handler: failed_frac %v, want 0", f)
	}
	if f := run(fake); f <= 0 {
		t.Errorf("wrong-count handler: failed_frac %v, want > 0", f)
	}
}

func TestMirrorChecksReadsAtTheirVersion(t *testing.T) {
	base := relation.MustNew("E", 2, [][]int64{{1, 2}, {2, 3}})
	upd := newUpdateOp(server.UpdateRequest{Relation: "E", Inserts: [][]int64{{1, 3}}})
	read := newQueryOp("tri", server.Request{Query: "E(x,y), E(y,z), E(x,z)", Mode: "count"})
	m, err := newMirror(base, []sample{{op: upd, out: outcome{ok: true, version: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// No triangle at version 0, one at version 1.
	reads := []sample{
		{op: read, out: outcome{ok: true, answer: "c:0", versions: map[string]uint64{"E": 0}}},
		{op: read, out: outcome{ok: true, answer: "c:1", versions: map[string]uint64{"E": 1}}},
		{op: read, out: outcome{ok: true, answer: "c:1", versions: map[string]uint64{"E": 0}}},
	}
	wrong, err := m.checkReads(reads)
	if err != nil {
		t.Fatal(err)
	}
	if wrong != 1 || reads[2].out.ok || !reads[0].out.ok || !reads[1].out.ok {
		t.Errorf("wrong=%d, verdicts %v %v %v; want only the third read failed", wrong, reads[0].out.ok, reads[1].out.ok, reads[2].out.ok)
	}
	// A gap in acknowledged versions means a lost update.
	if _, err := newMirror(base, []sample{{op: upd, out: outcome{ok: true, version: 2}}}); err == nil {
		t.Error("mirror accepted an acknowledged version gap")
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's workload and
// per-layer lists in step with what the harness generates and prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	bs := testSpec(t)
	for _, w := range bj.Workloads {
		if bs.Workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in workloads.json", w.Name)
		}
	}
	layers := perLayer()
	if len(layers) != len(bj.PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness prints %d", len(bj.PerLayer), len(layers))
	}
	for i, m := range layers {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, harness prints %s %s", i, bj.PerLayer[i].Name, bj.PerLayer[i].Unit, m.name, m.unit)
		}
	}
	for i, name := range endToEnd {
		if i >= len(bj.EndToEnd) || bj.EndToEnd[i].Name != name {
			t.Errorf("end_to_end[%d] should be %s", i, name)
		}
	}
}

func TestLatencySummaryTakesCalmestSubPhase(t *testing.T) {
	// 3000 reads in three sub-phases; the middle one ran on a stalled
	// machine and is ten times slower.
	var s []sample
	o := newQueryOp("x", server.Request{Query: "E(x,y)"})
	for i := 0; i < 3000; i++ {
		lat := time.Duration(1+i%100) * time.Millisecond
		if i >= 1000 && i < 2000 {
			lat *= 10
		}
		s = append(s, sample{op: o, out: outcome{ok: true}, lat: lat, done: time.Duration(i)*time.Second + lat})
	}
	p50, p99, pEff, k := latencySummary(s, func(*sample) bool { return true }, 1000, 5)
	if k != 3 || p50 != 50 || p99 != 99 || pEff != 0.99 {
		t.Errorf("got p50=%v p99=%v pEff=%v over %d sub-phases, want 50, 99, 0.99 over 3", p50, p99, pEff, k)
	}
}
