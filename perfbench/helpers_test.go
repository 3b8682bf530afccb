package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestMixDeterministic(t *testing.T) {
	a := [][]op{buildMix(3, 0, 96), buildMix(3, 1, 96)}
	b := [][]op{buildMix(3, 0, 96), buildMix(3, 1, 96)}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different mixes")
	}
	if mixDigest(a) != mixDigest(b) {
		t.Fatal("one mix gave two digests")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("the two clients got the same sequence")
	}
	c := [][]op{buildMix(4, 0, 96), buildMix(4, 1, 96)}
	if mixDigest(a) == mixDigest(c) {
		t.Error("seeds 3 and 4 gave the same digest")
	}
}

func TestMixShape(t *testing.T) {
	ops := buildMix(1, 0, 96)
	if len(ops) != mixLength {
		t.Fatalf("%d operations, want %d", len(ops), mixLength)
	}
	kinds := map[string]int{}
	keys := map[string]bool{}
	for _, o := range ops {
		kinds[o.Kind]++
		if o.Prog < 0 || o.Prog >= 96 || o.Config < 0 || o.Config >= len(profileConfigs) {
			t.Fatalf("operation out of range: %+v", o)
		}
		if o.Kind == opJobs {
			if len(o.Jobs) != jobsPerOp || keys[o.Key] || (o.JobKind != opProfile && o.JobKind != opReport) {
				t.Fatalf("bad or repeated batch: %+v", o)
			}
			keys[o.Key] = true
			for _, j := range o.Jobs {
				if j.Prog < 0 || j.Prog >= 96 || j.Config != 0 {
					t.Fatalf("batch job out of range: %+v", o)
				}
			}
		}
	}
	for _, k := range mixKinds {
		share := float64(kinds[k]) / float64(len(ops))
		if want := 1 / float64(len(mixKinds)); share < want-0.02 || share > want+0.02 {
			t.Errorf("%s share %.3f, want about %.2f", k, share, want)
		}
	}
}

func TestInputsDependOnSeedAlone(t *testing.T) {
	a, b := fuzzInputs(5, 3), fuzzInputs(5, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two draws")
	}
	if reflect.DeepEqual(a, fuzzInputs(6, 3)) {
		t.Error("seeds 5 and 6 gave the same draw")
	}
	refs := []*ref{{input: a[0]}, {input: a[1]}, {input: a[2]}}
	if sequenceDigest(refs, 5, 4) != sequenceDigest(refs, 5, 4) {
		t.Error("one seed gave two request digests")
	}
	if sequenceDigest(refs, 5, 4) == sequenceDigest(refs, 6, 4) {
		t.Error("seeds 5 and 6 gave the same request order")
	}
}

const metricsPage = `# HELP lowutil_requests_total Requests served, by endpoint.
# TYPE lowutil_requests_total counter
lowutil_requests_total{endpoint="audit"} 7
lowutil_requests_total{endpoint="compile"} 12

lowutil_profile_cache_hits_total 30
lowutil_profile_cache_misses_total 10
lowutil_session_cache_hits_total 8
lowutil_sessions_created_total 1
lowutil_session_cache_misses_total 1
lowutil_session_evictions_total 4
lowutil_job_result_hits_total 0
lowutil_job_result_misses_total 0
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(metricsPage))
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`lowutil_requests_total{endpoint="compile"}`]; got != 12 {
		t.Errorf("labelled series = %v, want 12", got)
	}
	if got := m["lowutil_profile_cache_hits_total"]; got != 30 {
		t.Errorf("plain series = %v, want 30", got)
	}
	for _, bad := range []string{"", "# only comments\n", "lowutil_x\n", "lowutil_x abc\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) succeeded", bad)
		}
	}
}

func TestServerLayerMetrics(t *testing.T) {
	after, err := parseMetrics(strings.NewReader(metricsPage))
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]float64{"lowutil_profile_cache_hits_total": 10, "lowutil_session_evictions_total": 1}
	got := serverLayerMetrics(before, after)
	want := map[string]float64{
		"server.profile_hit_ratio": 20.0 / 30,
		"server.session_hit_ratio": 0.8,
		"server.session_evictions": 3,
		"jobs.result_hit_ratio":    0, // no job traffic
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "b", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 90},
	}
	got := map[string]layerShare{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	for name, selfNS := range map[string]float64{"request": 30, "a": 20, "b": 50} {
		if l := got[name]; !near(l.SelfMS*1e6, selfNS) || !near(l.Share, selfNS/100) {
			t.Errorf("%s: self %v ns share %v, want %v ns", name, l.SelfMS*1e6, l.Share, selfNS)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{scale(1.05), "lower", "agree"},
		{scale(1.2), "lower", "worse"},
		{scale(1.2), "higher", "better"},
		{scale(0.8), "higher", "worse"},
		{[]float64{50, 150, 60, 140, 100, 100}, "lower", "unresolved"},
		{[]float64{200, 400, 250, 350, 300, 300}, "lower", "worse"},
		{[]float64{200, 400, 250, 350, 300, 300}, "higher", "better"},
	} {
		if got := verdict(a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.b, c.better, got, c.want)
		}
	}
}

// BENCHMARK.json at the repository root must list only workloads this
// program generates, bounds the contract allows, and a rationale for every
// per-layer metric (and no rationale for a metric it does not list).
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloadInputs(w.Name, 1) == nil {
			t.Errorf("workload %s has no inputs", w.Name)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	listed := map[string]bool{}
	for _, m := range b.PerLayer {
		listed[m.Name] = true
		if _, ok := layerRationale[m.Name]; !ok {
			t.Errorf("per-layer metric %s has no rationale", m.Name)
		}
	}
	for name := range layerRationale {
		if !listed[name] {
			t.Errorf("rationale for %s, which BENCHMARK.json does not list", name)
		}
	}
}

func TestResultSetRejectsUnlistedMetric(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}}
	var r result
	if err := r.set(defs, map[string]float64{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.set(defs, map[string]float64{"a": 1, "b": 2}); err == nil {
		t.Error("a value BENCHMARK.json does not list was accepted")
	}
	if err := r.set(defs, map[string]float64{}); err == nil {
		t.Error("a missing value was accepted")
	}
}

// compareRuns must fail when a workload's runs are missing from a set or
// when a set holds a run that failed its output checks.
func TestCompareFailsOnMissingOrIncorrectRuns(t *testing.T) {
	b := &benchmarkFile{EndToEnd: []metricDef{{Name: "m", Unit: "ms", Better: "lower", Bound: 0.2}}}
	b.Workloads = append(b.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	line := func(correct bool, failed int, v float64) string {
		return fmt.Sprintf(`{"correct": %v, "attempted": 10, "failed": %d, "metrics": {"m": {"value": %v, "unit": "ms"}}}`, correct, failed, v)
	}
	write := func(lines ...string) string {
		dir := t.TempDir()
		if len(lines) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "w.jsonl"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	good := write("# a comment line", line(true, 0, 10), line(true, 0, 10.5), line(true, 0, 9.8))
	if got := compareRuns(io.Discard, b, good, good); got != 0 {
		t.Fatalf("identical correct sets: status %d, want 0", got)
	}
	if got := compareRuns(io.Discard, b, good, write()); got != 1 {
		t.Errorf("missing workload file: status %d, want 1", got)
	}
	bad := write(line(true, 0, 10), line(false, 1, 10.2), line(true, 0, 9.9))
	if got := compareRuns(io.Discard, b, good, bad); got != 1 {
		t.Errorf("set with an incorrect run: status %d, want 1", got)
	}
	if _, err := readRuns(bad, "w"); err == nil {
		t.Error("readRuns accepted a run that failed its checks")
	}
}
