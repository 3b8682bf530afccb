package oraclecheck_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lowutil/internal/costben"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/oracle"
	"lowutil/internal/oracle/oraclecheck"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

func profileEngine(t *testing.T, prog *ir.Program) (*depgraph.Graph, int64) {
	t.Helper()
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return p.G, m.Steps
}

func setup(t *testing.T) (*oracle.Gcost, *depgraph.Graph, int64) {
	t.Helper()
	prog, err := workloads.ByName("eclipse").Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	g, steps := profileEngine(t, prog)
	want := oracle.Run(prog, 16, 0)
	if want.Err != "" {
		t.Fatal(want.Err)
	}
	if want.Steps != steps {
		t.Fatalf("steps: oracle %d, engine %d", want.Steps, steps)
	}
	if err := oraclecheck.All(want.G, g, steps, costben.DefaultTreeHeight); err != nil {
		t.Fatalf("unmutated engine graph disagrees with the oracle: %v", err)
	}
	return want.G, g, steps
}

// TestMutatedFrequencyCaught: decrementing one store node's frequency must
// fail both the graph comparison and the metric comparison on its own.
func TestMutatedFrequencyCaught(t *testing.T) {
	want, g, steps := setup(t)
	var victim *depgraph.Node
	g.Nodes(func(n *depgraph.Node) {
		if victim == nil && n.WritesHeap() && n.Freq() > 1 {
			victim = n
		}
	})
	if victim == nil {
		t.Fatal("no heap store to mutate")
	}
	victim.SetFreq(victim.Freq() - 1)
	g.Invalidate()
	if err := oraclecheck.Graph(want, g); err == nil || !strings.Contains(err.Error(), "frequency") {
		t.Errorf("graph check missed the decremented frequency: %v", err)
	}
	if err := oraclecheck.Metrics(want, g, costben.NewAnalysis(g), costben.DefaultTreeHeight); err == nil {
		t.Error("metric check missed the decremented frequency")
	}
	if err := oraclecheck.All(want, g, steps, costben.DefaultTreeHeight); err == nil {
		t.Error("full check missed the decremented frequency")
	}
}

// TestDroppedDepEdgeCaught: a round-trip of the engine graph through its
// serialized form with one dep edge removed must fail the comparison.
func TestDroppedDepEdgeCaught(t *testing.T) {
	want, g, steps := setup(t)
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	var deps [][2]int
	if err := json.Unmarshal(raw["depEdges"], &deps); err != nil || len(deps) == 0 {
		t.Fatalf("serialized graph has no dep edges (%v)", err)
	}
	raw["depEdges"], _ = json.Marshal(deps[1:])
	mutated, _ := json.Marshal(raw)
	g2, err := depgraph.Decode(bytes.NewReader(mutated), g.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumDepEdges() != g.NumDepEdges()-1 {
		t.Fatalf("mutation dropped %d edges, want 1", g.NumDepEdges()-g2.NumDepEdges())
	}
	if err := oraclecheck.All(want, g2, steps, costben.DefaultTreeHeight); err == nil || !strings.Contains(err.Error(), "deps") {
		t.Errorf("full check missed the dropped dep edge: %v", err)
	}
}
