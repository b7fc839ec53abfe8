package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one executed op returned, normalized for the answer
// check: answer is comparable with the oracle's answer for the same op.
type outcome struct {
	ok       bool   // 2xx and a well-formed body
	answer   string // normalized answer (see normalize)
	err      string
	versions map[string]uint64 // read: the version vector it executed at
	version  uint64            // update: the version it installed
	compact  bool              // update: it crossed the compaction crossover
	rows     int64             // stream: rows received
	bytes    int               // response body bytes
}

// sample is one op as the load generator saw it.
type sample struct {
	op  *op
	out outcome
	// lat is completion minus due time in open loops (so a stall is
	// charged to every request scheduled behind it) and completion
	// minus send time in closed loops.
	lat time.Duration
	// done is the completion time as an offset from the phase start.
	done time.Duration
}

// executor runs one op on connection conn (0 ≤ conn < conns).
type executor func(ctx context.Context, conn int, o *op) outcome

// phase is the record of one load phase.
type phase struct {
	samples    []sample
	elapsed    time.Duration
	lag        []time.Duration // open loop: how late each op was handed out
	backlogMax int             // open loop: most ops due but not yet taken
}

// openLoop sends ops[i] at start+ops[i].Due regardless of completions,
// over conns connections. Ops that are due while every connection is
// busy wait in a queue; their latency counts from the due time.
func openLoop(ctx context.Context, ops []*op, conns int, exec executor) *phase {
	p := &phase{samples: make([]sample, len(ops)), lag: make([]time.Duration, len(ops))}
	due := make([]time.Time, len(ops))
	queue := make(chan int, len(ops)) // sized to the number of sends: the dispatcher never blocks
	var taken atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range queue {
				taken.Add(1)
				out := exec(ctx, conn, ops[i])
				p.samples[i] = sample{op: ops[i], out: out, lat: time.Since(due[i]), done: time.Since(start)}
			}
		}(c)
	}
	for i, o := range ops {
		due[i] = start.Add(o.Due)
		if d := time.Until(due[i]); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		p.lag[i] = time.Since(due[i])
		if b := i - int(taken.Load()); b > p.backlogMax {
			p.backlogMax = b
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// closedLoop runs conns clients that each send their next op only when
// the previous one completed, for dur. Ops are taken from ops in order;
// with cycle the sequence wraps, otherwise the phase ends early when it
// runs out.
func closedLoop(ctx context.Context, ops []*op, cycle bool, conns int, dur time.Duration, exec executor) *phase {
	p := &phase{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			var local []sample
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					if !cycle || len(ops) == 0 {
						break
					}
					i %= len(ops)
				}
				t0 := time.Now()
				out := exec(ctx, conn, ops[i])
				local = append(local, sample{op: ops[i], out: out, lat: time.Since(t0), done: time.Since(start)})
			}
			mu.Lock()
			p.samples = append(p.samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// windowRate is the median over k equal windows of [0, span) of the
// rate of successful samples matching keep that completed in each
// window. The median keeps a short stall of the machine from moving a
// throughput figure.
func windowRate(s []sample, span time.Duration, k int, keep func(*sample) bool) float64 {
	counts := make([]float64, k)
	w := span / time.Duration(k)
	for i := range s {
		if !keep(&s[i]) || !s[i].out.ok {
			continue
		}
		if j := int(s[i].done / w); j < k {
			counts[j]++
		}
	}
	for j := range counts {
		counts[j] /= w.Seconds()
	}
	sort.Float64s(counts)
	return counts[k/2]
}

// latencies returns the sorted latencies in ms of the samples matching
// keep; a failed request counts as +Inf, missing every latency limit.
func latencies(s []sample, keep func(*sample) bool) []float64 {
	var out []float64
	for i := range s {
		if !keep(&s[i]) {
			continue
		}
		if s[i].out.ok {
			out = append(out, float64(s[i].lat)/float64(time.Millisecond))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank p-quantile of sorted values (NaN when
// there are none).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// tailQuantile is the nearest-rank p-quantile when at least minBeyond
// samples lie beyond it; otherwise it falls back to the highest rank
// that has minBeyond samples beyond it and reports the quantile it
// actually measured as pEff (NaN value when even the minimum cannot
// be met).
func tailQuantile(sorted []float64, p float64, minBeyond int) (v, pEff float64) {
	n := len(sorted)
	k := int(math.Ceil(p * float64(n)))
	if n-k < minBeyond {
		k = n - minBeyond
	}
	if k < 1 {
		return math.NaN(), 0
	}
	return sorted[k-1], float64(k) / float64(n)
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// latencySummary splits the samples matching keep by send (or due)
// time into k ≤ maxK consecutive sub-phases of at least minPer samples
// each, so every sub-phase's p99 has ten samples beyond it, and returns
// the smallest p50 and the smallest p99 among the sub-phases. On a
// shared machine, host CPU steal inflates the latency of whole
// stretches of a run; the calmest stretch is the one that shows the
// program, and a slower program is slower in every stretch. pEff is
// the tail quantile actually measured (below 0.99 only when there are
// too few samples; see tailQuantile).
func latencySummary(s []sample, keep func(*sample) bool, minPer, maxK int) (p50, p99, pEff float64, k int) {
	var sel []sample
	for i := range s {
		if keep(&s[i]) {
			sel = append(sel, s[i])
		}
	}
	sort.SliceStable(sel, func(i, j int) bool { return sel[i].done-sel[i].lat < sel[j].done-sel[j].lat })
	k = min(max(len(sel)/minPer, 1), maxK)
	p50, p99, pEff = math.Inf(1), math.Inf(1), 1
	for c := 0; c < k; c++ {
		chunk := sel[c*len(sel)/k : (c+1)*len(sel)/k]
		lat := latencies(chunk, func(*sample) bool { return true })
		v, pe := tailQuantile(lat, 0.99, 10)
		p50 = min(p50, quantile(lat, 0.5))
		p99 = min(p99, v)
		pEff = min(pEff, pe)
	}
	return p50, p99, pEff, k
}

// medianOf is the median of v (the mean of the middle two for even
// lengths; +Inf values sort last).
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
