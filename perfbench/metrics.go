package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported number: its name, unit and which direction is an
// improvement. The tables below are the single source of the names
// BENCHMARK.json lists; a test keeps the two in step.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what an untraced run (-trace 0) reports. Host-time numbers
// come from untraced runs only.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_insts_per_s", "1/s", "higher"},
	{"heap_peak_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"caps_speedup", "ratio", "higher"},
	{"paper_gap", "ratio", "lower"},
	{"lens_overhead", "ratio", "lower"},
}

// perLayer is what a traced run (-trace 1) reports. NOTES.md maps each
// metric to the end-to-end metric and workload it should move.
var perLayer = []metric{
	{"sched.pick_ns.p50", "ns", "lower"},
	{"sched.pick_ns.p99", "ns", "lower"},
	{"sched.picks_per_cycle", "1/cycle", "lower"},
	{"sched.pick_issue_share", "ratio", "higher"},
	{"sched.wakeups", "count", "higher"},

	{"prefetch.onload_ns.p50", "ns", "lower"},
	{"prefetch.onload_ns.p99", "ns", "lower"},
	{"prefetch.onload_calls", "count", "lower"},
	{"prefetch.candidates_per_load", "1/load", "higher"},
	{"prefetch.table_lookups", "count", "lower"},
	{"prefetch.accuracy", "ratio", "higher"},
	{"prefetch.coverage", "ratio", "higher"},
	{"prefetch.drop_share", "ratio", "lower"},

	{"mem.l1_access_ns.p50", "ns", "lower"},
	{"mem.l2_access_ns.p50", "ns", "lower"},
	{"mem.dram_tick_ns.p50", "ns", "lower"},
	{"mem.dram_tick_ns.p99", "ns", "lower"},
	{"mem.l1_hit_ratio", "ratio", "higher"},
	{"mem.l1_merge_share", "ratio", "higher"},
	{"mem.l1_reservation_fails", "count", "lower"},
	{"mem.l2_hit_ratio", "ratio", "higher"},
	{"mem.dram_reads", "count", "lower"},
	{"mem.dram_row_hit_ratio", "ratio", "higher"},
	{"mem.demand_latency_cycles", "cycles", "lower"},

	{"sim.step_ns.p50", "ns", "lower"},
	{"sim.step_ns.p99", "ns", "lower"},
	{"sim.steps", "count", "lower"},
	{"sim.cycles_per_step", "cycle/step", "higher"},
	{"sim.ipc", "inst/cycle", "higher"},
	{"sm.issue_share", "ratio", "higher"},
	{"sm.stall_share", "ratio", "lower"},
	{"sm.mem_stall_share", "1/cycle", "lower"},

	{"lens.build_ms", "ms", "lower"},
	{"lens.validate_ms", "ms", "lower"},
	{"lens.encode_ms", "ms", "lower"},

	{"setup.sim_new_ms", "ms", "lower"},

	{"trace_overhead", "ratio", "lower"},
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output. Attempted and Failed
// count simulations: one that errors, stops short of its instruction cap,
// or disagrees with its expected output is failed.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult checks that vals holds exactly the metrics of table, each a
// finite number, and attaches their units.
func newResult(table []metric, vals map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]value, len(table))}
	for _, m := range table {
		v, ok := vals[m.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		r.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if len(vals) != len(table) {
		var extra []string
		for name := range vals {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return r, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return r, nil
}

// write prints the result as one JSON line.
func (r result) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(r)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
