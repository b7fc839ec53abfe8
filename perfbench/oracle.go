package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/relation"
	"repro/internal/server"
)

// oracle answers ops in process with a single engine over the whole
// graph, configured like the daemons (same -workers, default planner),
// so eval samples and stream bytes follow the same plans.
type oracle struct {
	h       http.Handler
	answers map[string]string
}

func newOracle(db *relation.DB, workers int) *oracle {
	e := server.NewEngine(db, server.Config{Workers: workers})
	return &oracle{h: server.NewHandler(e), answers: make(map[string]string)}
}

// answer returns the oracle's normalized answer for o, computing it on
// first use.
func (or *oracle) answer(o *op) (string, error) {
	k := o.key()
	if a, ok := or.answers[k]; ok {
		return a, nil
	}
	out := serveInProcess(or.h, o)
	if !out.ok {
		return "", fmt.Errorf("oracle failed on %s: %s", o.body, out.err)
	}
	or.answers[k] = out.answer
	return out.answer, nil
}

// serveInProcess runs one op through a handler without a socket.
func serveInProcess(h http.Handler, o *op) outcome {
	req := httptest.NewRequest(http.MethodPost, o.path(), bytes.NewReader(o.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return normalize(o, rec.Code, rec.Body.Bytes())
}

// checkAgainst marks every sample whose answer differs from the
// oracle's as failed and returns how many it marked.
func checkAgainst(or *oracle, samples []sample) (int, error) {
	wrong := 0
	for i := range samples {
		s := &samples[i]
		if !s.out.ok {
			continue
		}
		want, err := or.answer(s.op)
		if err != nil {
			return 0, err
		}
		if s.out.answer != want {
			s.out.ok = false
			s.out.err = fmt.Sprintf("wrong answer %s, oracle %s", s.out.answer, want)
			wrong++
		}
	}
	return wrong, nil
}

// mirror replays acknowledged updates on an in-process relation.Store in
// the order the daemon installed them (by the version each update
// returned) and answers reads at any version they report.
type mirror struct {
	store    *relation.Store
	versions []relation.Version // versions[v] is the relation at version v
}

// newMirror applies the acknowledged updates in version order. Every
// generated update has a net effect, so acknowledged versions must be
// exactly 1..n; anything else means the daemon lost or reordered one.
func newMirror(base *relation.Relation, updates []sample) (*mirror, error) {
	acked := make([]sample, 0, len(updates))
	for _, s := range updates {
		if s.out.ok {
			acked = append(acked, s)
		}
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].out.version < acked[j].out.version })
	m := &mirror{store: relation.NewStore(base)}
	m.versions = append(m.versions, m.store.Version())
	for i, s := range acked {
		if s.out.version != uint64(i+1) {
			return nil, fmt.Errorf("acknowledged versions are not 1..%d: update %d reported version %d", len(acked), i+1, s.out.version)
		}
		v, changed, err := m.store.ApplyDelta(s.op.Update.Inserts, s.op.Update.Deletes)
		if err != nil {
			return nil, err
		}
		if !changed || v.Num != s.out.version {
			return nil, fmt.Errorf("mirror diverged at version %d", s.out.version)
		}
		m.versions = append(m.versions, v)
	}
	return m, nil
}

// count evaluates query text at version v of the mirror.
func (m *mirror) count(text string, v uint64) (int64, error) {
	if v >= uint64(len(m.versions)) {
		return 0, fmt.Errorf("read reports version %d, mirror has %d", v, len(m.versions)-1)
	}
	return countOn(relation.NewDB(m.versions[v].Rel), text)
}

// countOn counts a query over db with the stats-free planner: counts
// do not depend on the plan.
func countOn(db *relation.DB, text string) (int64, error) {
	q, err := cq.Parse(text)
	if err != nil {
		return 0, err
	}
	p, err := core.AutoPlan(q, db, core.AutoOptions{Orderer: core.OrdererGreedy})
	if err != nil {
		return 0, err
	}
	return p.Count(core.Policy{}).Count, nil
}

// checkReads marks every read whose count differs from the mirror's at
// the version vector the response reported, and returns how many.
func (m *mirror) checkReads(samples []sample) (int, error) {
	memo := make(map[string]int64)
	wrong := 0
	for i := range samples {
		s := &samples[i]
		if s.op.Query == nil || !s.out.ok {
			continue
		}
		v, ok := s.out.versions["E"]
		if !ok {
			s.out.ok = false
			s.out.err = "read reported no version for E"
			wrong++
			continue
		}
		k := fmt.Sprintf("%d|%s", v, s.op.Query.Query)
		want, ok := memo[k]
		if !ok {
			var err error
			if want, err = m.count(s.op.Query.Query, v); err != nil {
				return 0, err
			}
			memo[k] = want
		}
		if got := fmt.Sprintf("c:%d", want); s.out.answer != got {
			s.out.ok = false
			s.out.err = fmt.Sprintf("wrong answer %s at version %d, mirror %s", s.out.answer, v, got)
			wrong++
		}
	}
	return wrong, nil
}

// final is the mirror's relation after every acknowledged update.
func (m *mirror) final() relation.Version { return m.versions[len(m.versions)-1] }
