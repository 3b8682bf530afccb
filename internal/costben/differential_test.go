package costben_test

// Differential proof for the frozen DP path: on every workload, every
// metric the analysis exposes — per-node HRAC/HRAB, per-location RAC/RAB,
// per-structure n-RAC/n-RAB — must be bit-identical to the definition-level
// walks of package oracle, and the parallel ranking must be bit-identical
// to the serial one.

import (
	"testing"

	"lowutil/internal/costben"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/oracle"
	"lowutil/internal/oracle/oraclecheck"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

func profileWorkload(t *testing.T, name string) *depgraph.Graph {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("unknown workload %s", name)
	}
	prog, err := w.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return p.G
}

func sameReports(t *testing.T, kind string, a, b []*costben.SiteReport) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d entries", kind, len(a), len(b))
	}
	for i := range a {
		f, l := a[i], b[i]
		if f.Site != l.Site || f.NRAC != l.NRAC || f.NRAB != l.NRAB ||
			f.Rate != l.Rate || f.Consumed != l.Consumed || f.AllocFreq != l.AllocFreq {
			t.Fatalf("%s entry %d differs:\n %v\n %v", kind, i, f, l)
		}
	}
}

// TestFrozenMatchesLegacyAllWorkloads checks the frozen DP against the
// oracle (the name predates the oracle, which replaced a second, per-query
// traversal implementation inside this package).
func TestFrozenMatchesLegacyAllWorkloads(t *testing.T) {
	names := make([]string, 0, len(workloads.All()))
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	if testing.Short() {
		names = []string{"eclipse", "bloat", "xalan"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			g := profileWorkload(t, name)
			want := oracle.Run(g.Prog, 16, 0)
			if want.Err != "" {
				t.Fatal(want.Err)
			}
			if err := oraclecheck.Graph(want.G, g); err != nil {
				t.Fatal(err)
			}
			if err := oraclecheck.Metrics(want.G, g, costben.NewAnalysis(g), costben.DefaultTreeHeight); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestParallelRankingDeterministic(t *testing.T) {
	g := profileWorkload(t, "eclipse")
	serial := costben.NewAnalysisWith(g, costben.Config{Workers: 1})
	parallel := costben.NewAnalysisWith(g, costben.Config{Workers: 8})
	want := serial.RankBySite(costben.DefaultTreeHeight)
	// Re-rank several times: any map-order or scheduling nondeterminism in
	// the parallel merge would flake here.
	for round := 0; round < 5; round++ {
		sameReports(t, "parallel RankBySite", parallel.RankBySite(costben.DefaultTreeHeight), want)
	}
}
