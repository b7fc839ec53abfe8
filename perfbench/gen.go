package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/queries"
	"repro/internal/server"
)

// op is one seeded request of a workload sequence. Due is its offset
// from the start of the open-loop schedule (zero in closed loops).
type op struct {
	Due    time.Duration
	Shape  string
	Query  *server.Request
	Update *server.UpdateRequest
	body   []byte
}

// path is the daemon endpoint the op is posted to.
func (o *op) path() string {
	if o.Update != nil {
		return "/update"
	}
	return "/query"
}

// key identifies the op's answer: identical requests share one oracle
// answer (updates never repeat, so their keys never collide).
func (o *op) key() string { return o.path() + " " + string(o.body) }

func newQueryOp(shape string, req server.Request) *op {
	b, _ := json.Marshal(req) // plain struct: cannot fail
	return &op{Shape: shape, Query: &req, body: b}
}

func newUpdateOp(req server.UpdateRequest) *op {
	b, _ := json.Marshal(req)
	return &op{Shape: "update", Update: &req, body: b}
}

// genGraph builds the workload's seeded graph.
func genGraph(g graphSpec, seed int64) (*dataset.Graph, error) {
	if g.Generator != "TriadicPA" {
		return nil, fmt.Errorf("unknown generator %q", g.Generator)
	}
	return dataset.TriadicPA(g.Nodes, g.EdgesPerNode, g.PTriad, seed), nil
}

// writeEdges writes the graph as the edge-list text cltjd -data reads.
func writeEdges(w io.Writer, g *dataset.Graph) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges {
		fmt.Fprintf(bw, "%d %d\n", e[0], e[1])
	}
	return bw.Flush()
}

// joinShape maps a join-heavy shape name to its query text and mode.
func joinShape(shape string) (text, mode string) {
	switch shape {
	case "cycle4":
		return queries.Cycle(4).String(), "count"
	case "path4":
		return queries.Path(4).String(), "aggregate"
	case "path5":
		return queries.Path(5).String(), "count"
	case "lollipop":
		return queries.Lollipop(3, 2).String(), "aggregate"
	}
	panic("unknown join shape " + shape)
}

// pointShape renders the query of a shape around node c (whole-graph
// shapes ignore c).
func pointShape(shape string, c int64) string {
	switch shape {
	case "tri":
		return fmt.Sprintf("E(%d,y), E(y,z), E(%d,z)", c, c)
	case "hop2":
		return fmt.Sprintf("E(%d,y), E(y,z)", c)
	case "hop3":
		return fmt.Sprintf("E(%d,y), E(y,z), E(z,w)", c)
	case "point":
		return fmt.Sprintf("E(%d,y), E(%d,z)", c, c)
	case "star_stream":
		return fmt.Sprintf("E(x,y), E(x,%d)", c)
	case "star":
		return fmt.Sprintf("E(x,y), E(x,z), E(x,%d)", c)
	case "triangle":
		return queries.Clique(3).String()
	case "path4":
		return queries.Path(4).String()
	}
	panic("unknown point shape " + shape)
}

// zipfNodes draws node ids Zipf-distributed over the nodes ranked by
// degree, P(rank k) ∝ (v+k)^-s: the most popular constants are the
// hubs, as in real query logs. Ranking by degree rather than by a
// seeded permutation, and a v that flattens the head so no single node
// takes more than a few percent of the draws, keep what the popular
// constants cost from swinging with the seed.
type zipfNodes struct {
	z      *rand.Zipf
	ranked []int64
}

func newZipfNodes(rng *rand.Rand, g *dataset.Graph, s, v float64) *zipfNodes {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	ranked := make([]int64, g.N)
	for i := range ranked {
		ranked[i] = int64(i)
	}
	sort.SliceStable(ranked, func(i, j int) bool { return deg[ranked[i]] > deg[ranked[j]] })
	return &zipfNodes{z: rand.NewZipf(rng, s, v, uint64(g.N-1)), ranked: ranked}
}

func (z *zipfNodes) next() int64 { return z.ranked[z.z.Uint64()] }

// deck deals names in a seeded order with exact proportions: every
// round of len(names) draws is a permutation of names. Uniform draws
// would let the shape mix itself vary by a few percent between seeds.
type deck struct {
	rng        *rand.Rand
	names, cur []string
}

func newDeck(rng *rand.Rand, names []string) *deck { return &deck{rng: rng, names: names} }

func (d *deck) next() string {
	if len(d.cur) == 0 {
		d.cur = append(d.cur[:0], d.names...)
		d.rng.Shuffle(len(d.cur), func(i, j int) { d.cur[i], d.cur[j] = d.cur[j], d.cur[i] })
	}
	x := d.cur[0]
	d.cur = d.cur[1:]
	return x
}

// workload is one generated instance: the graph, the request sequence
// and, for open loops, its schedule.
type workload struct {
	spec  *workloadSpec
	seed  int64
	graph *dataset.Graph
	// ops is the measured-phase sequence; open loops send ops[i] at
	// ops[i].Due. sat is what the closed-loop saturation phase sends,
	// in order, cycling when it runs out (read-write never cycles:
	// its updates must not repeat).
	ops []*op
	sat []*op
}

// generate builds the seeded workload for a run of the given measured
// duration (main is the open/closed-loop phase, satDur the saturation
// phase).
func generate(spec *workloadSpec, seed int64, main, satDur time.Duration) (*workload, error) {
	g, err := genGraph(spec.Graph, seed)
	if err != nil {
		return nil, err
	}
	w := &workload{spec: spec, seed: seed, graph: g}
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	switch spec.name {
	case "join-heavy":
		shapes := newDeck(rng, weighted(spec.Shapes))
		for i := 0; i < 4096; i++ {
			shape := shapes.next()
			text, mode := joinShape(shape)
			w.ops = append(w.ops, newQueryOp(shape, server.Request{Query: text, Mode: mode}))
		}
		w.sat = w.ops
	case "serve-mix", "scatter-gather":
		// Shapes and modes are dealt jointly, so every seed sends the
		// same mix in a different order.
		modes := weighted(spec.Modes)
		if len(modes) == 0 {
			modes = []string{"count"}
		}
		var pairs []string
		for _, shape := range weighted(spec.Shapes) {
			for _, mode := range modes {
				pairs = append(pairs, shape+"/"+mode)
			}
		}
		mix := newDeck(rng, pairs)
		z := newZipfNodes(rng, g, spec.ZipfS, spec.ZipfV)
		n := int(math.Ceil(spec.Rate * main.Seconds()))
		for i := 0; i < n; i++ {
			shape, mode, _ := strings.Cut(mix.next(), "/")
			req := server.Request{Query: pointShape(shape, z.next()), Mode: mode}
			if shape == "star_stream" {
				req.Mode = "stream"
			}
			switch req.Mode {
			case "eval":
				req.Limit = spec.EvalLimit
			case "stream":
				req.Limit = spec.StreamLimit
			}
			o := newQueryOp(shape, req)
			o.Due = time.Duration(float64(i) / spec.Rate * float64(time.Second))
			w.ops = append(w.ops, o)
		}
		w.sat = w.ops
	case "read-write":
		w.ops, w.sat = genReadWrite(spec, g, rng, main, satDur)
	default:
		return nil, fmt.Errorf("unknown workload %q", spec.name)
	}
	return w, nil
}

// genReadWrite interleaves whole-graph count reads with insert/delete
// batches on one schedule. Deletes draw original edges without
// replacement and inserts draw fresh non-edges, so every batch has a
// net effect in any application order — each acknowledged update
// advances the relation version by exactly one.
func genReadWrite(spec *workloadSpec, g *dataset.Graph, rng *rand.Rand, main, satDur time.Duration) (ops, sat []*op) {
	present := make(map[[2]int64]bool, len(g.Edges))
	for _, e := range g.Edges {
		present[e] = true
	}
	delPool := rng.Perm(len(g.Edges))
	nextUpdate := func() *op {
		var req server.UpdateRequest
		req.Relation = "E"
		for i := 0; i < spec.UpdateDeletes && len(delPool) > 0; i++ {
			e := g.Edges[delPool[0]]
			delPool = delPool[1:]
			req.Deletes = append(req.Deletes, []int64{e[0], e[1]})
		}
		for len(req.Inserts) < spec.UpdateInserts {
			e := [2]int64{int64(rng.Intn(g.N)), int64(rng.Intn(g.N))}
			if e[0] == e[1] || present[e] {
				continue
			}
			present[e] = true
			req.Inserts = append(req.Inserts, []int64{e[0], e[1]})
		}
		return newUpdateOp(req)
	}
	shapes := newDeck(rng, weighted(spec.Shapes))
	nextRead := func() *op {
		shape := shapes.next()
		return newQueryOp(shape, server.Request{Query: pointShape(shape, 0), Mode: "count"})
	}
	// Reads at k/rate and updates at j/updateRate, merged by due time.
	readGap := time.Duration(float64(time.Second) / spec.Rate)
	updGap := time.Duration(float64(time.Second) / spec.UpdateRate)
	nr, nu := 0, 0
	for {
		rd, ud := time.Duration(nr)*readGap, time.Duration(nu)*updGap
		if rd >= main && ud >= main {
			break
		}
		var o *op
		if rd <= ud {
			o, nr = nextRead(), nr+1
			o.Due = rd
		} else {
			o, nu = nextUpdate(), nu+1
			o.Due = ud
		}
		ops = append(ops, o)
	}
	// The saturation phase keeps the read/update proportion, with room
	// for a closed loop several times faster than the offered rate.
	share := spec.UpdateRate / (spec.Rate + spec.UpdateRate)
	n := int(8 * (spec.Rate + spec.UpdateRate) * satDur.Seconds())
	for i, updates := 0, 0; i < n && len(delPool) >= spec.UpdateDeletes; i++ {
		if float64(i+1)*share >= float64(updates+1) {
			sat = append(sat, nextUpdate())
			updates++
		} else {
			sat = append(sat, nextRead())
		}
	}
	return ops, sat
}
