package deadness_test

// Differential proof that the condensed propagation matches the
// definition-level deadness of package oracle on every workload: same
// D*/P* class for every node and the same IPD/IPP/NLD and their inputs.

import (
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/oracle"
	"lowutil/internal/oracle/oraclecheck"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

// TestFrozenMatchesLegacyAllWorkloads checks Analyze against the oracle (the
// name predates the oracle, which replaced a second, map-based propagation
// inside this package).
func TestFrozenMatchesLegacyAllWorkloads(t *testing.T) {
	names := make([]string, 0, len(workloads.All()))
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	if testing.Short() {
		names = []string{"bloat", "eclipse", "xalan"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			w := workloads.ByName(name)
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
			want := oracle.Run(prog, 16, 0)
			if want.Err != "" {
				t.Fatal(want.Err)
			}
			if err := oraclecheck.Deadness(want.G, p.G, m.Steps); err != nil {
				t.Fatal(err)
			}
		})
	}
}
