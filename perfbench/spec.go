package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

//go:embed workloads.json
var specJSON []byte

// graphSpec sizes the seeded TriadicPA graph of one workload.
type graphSpec struct {
	Generator    string  `json:"generator"`
	Nodes        int     `json:"nodes"`
	EdgesPerNode int     `json:"edges_per_node"`
	PTriad       float64 `json:"p_triad"`
}

// daemonSpec pins how the workload's cltjd processes run.
type daemonSpec struct {
	GOMAXPROCS int  `json:"gomaxprocs"`
	Workers    int  `json:"workers"`
	Shards     int  `json:"shards"`
	DataDir    bool `json:"data_dir"`
}

// workloadSpec is one entry of workloads.json (its prose fields, why
// and flush, are records for readers and not read here).
type workloadSpec struct {
	Graph         graphSpec      `json:"graph"`
	Loop          string         `json:"loop"`
	Clients       int            `json:"clients"`
	Rate          float64        `json:"rate_per_s"`
	UpdateRate    float64        `json:"update_rate_per_s"`
	UpdateInserts int            `json:"update_inserts"`
	UpdateDeletes int            `json:"update_deletes"`
	ZipfS         float64        `json:"zipf_s"`
	ZipfV         float64        `json:"zipf_v"`
	Shapes        map[string]int `json:"shapes"`
	Modes         map[string]int `json:"modes"`
	EvalLimit     int            `json:"eval_limit"`
	StreamLimit   int            `json:"stream_limit"`
	Daemon        daemonSpec     `json:"daemon"`
	name          string
}

// benchSpec is the whole of workloads.json.
type benchSpec struct {
	MaxConns        int                      `json:"max_conns"`
	SaturationShare float64                  `json:"saturation_share"`
	SetupRepeats    int                      `json:"setup_repeats"`
	Workloads       map[string]*workloadSpec `json:"workloads"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range s.Workloads {
		w.name = name
	}
	return &s, nil
}

// names returns the workload names in a fixed order.
func (s *benchSpec) names() []string {
	var out []string
	for n := range s.Workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// weighted expands a name→weight map into a sorted pick list, so a
// seeded index into it is reproducible regardless of map order.
func weighted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		for i := 0; i < m[k]; i++ {
			out = append(out, k)
		}
	}
	return out
}
