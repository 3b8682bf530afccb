package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is BENCHMARK.json at the repository root: the workloads
// with why each was chosen, and every metric's name, unit and direction
// (plus a regression bound for the end-to-end ones). The program reads
// its names and units from there and keeps no copy of them.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// hasWorkload reports whether BENCHMARK.json lists the workload.
func (b *benchmarkFile) hasWorkload(name string) bool {
	for _, w := range b.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// rationale says, for one per-layer metric, which end-to-end metric and
// workload a change to that layer should move, and where it should stay
// flat. `perfbench --describe` prints it beside BENCHMARK.json's entries;
// TestBenchmarkJSONMatchesProgram requires one for every per-layer metric.
type rationale struct {
	Moves, Flat string
}

const (
	onProfile = "profile-large"
	onServe   = "serve-mixed"
)

// Where each layer shows. serve-mixed's compile and audit requests run the
// compiler and the static layers and nothing traced, and its memo hits
// skip interp; profile-large runs no static analysis. The per-layer
// metrics of every layer are measured on both workloads by the traced
// run's layer passes.
const (
	serveStatic = "compile and audit requests on " + onServe
	serveMisses = "memo misses on " + onServe
	serveBypass = onServe + "'s compile, audit and memo-hit requests"
)

var layerRationale = map[string]rationale{
	"mjc.compile_ms": {"req_cpu_p50_ms, req_per_cpu_s on " + onServe + " (" + serveStatic + ")", onProfile + " (<5% of a request)"},
	"mjc.ir_instrs":  {"req_cpu_p50_ms on " + onServe + " (" + serveStatic + ")", onProfile},

	"interp.run_ms":       {"req_per_cpu_s on " + onProfile + "; raises overhead_x (its denominator)", serveBypass},
	"interp.steps":        {"req_cpu_p50_ms on " + onProfile + "; " + serveMisses, serveBypass},
	"interp.minstr_per_s": {"req_per_cpu_s on " + onProfile, serveBypass},
	"interp.nop_tracer_x": {"overhead_x on " + onProfile, serveBypass},

	"profiler.trace_ms":         {"overhead_x, req_cpu_p90_ms, req_per_cpu_s on " + onProfile + "; " + serveMisses, serveBypass},
	"profiler.ns_per_step":      {"overhead_x on " + onProfile, serveBypass},
	"profiler.allocs_per_run":   {"alloc_mb_per_req on " + onProfile, serveBypass},
	"profiler.alloc_kb_per_run": {"alloc_mb_per_req on " + onProfile, serveBypass},
	"profiler.trackcr_x":        {"overhead_x on " + onProfile, serveBypass},

	"depgraph.nodes":     {"peak_heap_mb, alloc_mb_per_req on " + onProfile + " and " + onServe, serveBypass},
	"depgraph.dep_edges": {"peak_heap_mb, alloc_mb_per_req on " + onProfile + " and " + onServe, serveBypass},
	"depgraph.ref_edges": {"peak_heap_mb, alloc_mb_per_req on " + onProfile + " and " + onServe, serveBypass},
	"depgraph.approx_kb": {"peak_heap_mb on " + onProfile + " and " + onServe, serveBypass},
	"depgraph.avg_cr":    {"report precision (Table 1 CR); no speed metric", serveBypass},
	"depgraph.freeze_ms": {"req_cpu_p50_ms on " + onProfile, serveBypass},

	"costben.rank_ms":              {"req_cpu_p50_ms on " + onServe + " (reports over cached profiles)", onProfile},
	"costben.sites":                {"none (ranked allocation sites; a size, not a cost)", onProfile},
	"deadness.analyze_ms":          {"req_cpu_p50_ms on " + onServe, onProfile},
	"staticanalysis.crosscheck_ms": {"req_cpu_p50_ms on " + onServe, onProfile},
	"lowutil.report_ms":            {"req_cpu_p50_ms on " + onServe, onProfile},
	"lowutil.report_bytes":         {"none (report size; must not change)", onProfile},

	"interproc.analyze_ms":    {"req_cpu_p50_ms, req_per_cpu_s on " + onServe + " (" + serveStatic + ")", onProfile},
	"interproc.pt_objects":    {"req_cpu_p50_ms on " + onServe + " (" + serveStatic + ")", onProfile},
	"ssa.build_ms":            {"req_cpu_p50_ms on " + onServe + " (" + serveStatic + ")", onProfile},
	"ssa.vals":                {"req_cpu_p50_ms on " + onServe + " (" + serveStatic + ")", onProfile},
	"escape.analyze_ms":       {"req_cpu_p50_ms, req_per_cpu_s on " + onServe + " (" + serveStatic + ")", onProfile},
	"escape.sites":            {"none (analyzed allocation sites; a size)", onProfile},
	"staticanalysis.vet_ms":   {"none: neither workload calls Vet; layer passes only", onProfile + ", " + onServe},
	"staticanalysis.findings": {"none (vet findings; must not change)", onProfile + ", " + onServe},
	"lowutil.audit_ms":        {"req_cpu_p50_ms, req_per_cpu_s on " + onServe + " (" + serveStatic + ")", onProfile},

	"server.compile_p50_ms":    {"req_cpu_p50_ms, req_per_cpu_s on " + onServe, onProfile},
	"server.profile_p50_ms":    {"req_cpu_p50_ms, req_cpu_p90_ms on " + onServe, onProfile},
	"server.report_p50_ms":     {"req_cpu_p50_ms on " + onServe, onProfile},
	"server.audit_p50_ms":      {"req_cpu_p50_ms on " + onServe, onProfile},
	"server.envelope_ms":       {"req_cpu_p50_ms, req_per_cpu_s on " + onServe, onProfile},
	"server.profile_hit_ratio": {"req_per_cpu_s, req_cpu_p50_ms on " + onServe, onProfile},
	"server.session_hit_ratio": {"req_per_cpu_s on " + onServe, onProfile},
	"server.session_evictions": {"peak_heap_mb, req_per_cpu_s on " + onServe, onProfile},
	"server.rejected":          {"req_cpu_p90_ms on " + onServe, onProfile},
	"server.client_retries":    {"req_cpu_p90_ms on " + onServe, onProfile},

	"jobs.wait_ms":          {"none on the CPU clock (time queued uses no CPU); per-layer only", onProfile},
	"jobs.run_ms":           {"req_cpu_p90_ms on " + onServe, onProfile},
	"jobs.result_hit_ratio": {"req_cpu_p90_ms, req_per_cpu_s on " + onServe, onProfile},
	"jobs.retries":          {"req_cpu_p90_ms on " + onServe, onProfile},
	"jobs.failed":           {"failed requests on " + onServe, onProfile},

	"bench.trace_overhead_x": {"none (cost of the traced run's spans against the untraced facade path)", "all"},
}
