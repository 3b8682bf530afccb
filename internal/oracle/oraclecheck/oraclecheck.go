// Package oraclecheck compares the VM and the profiling engine — the
// interned depgraph Gcost, the frozen cost-benefit DP and the condensed
// deadness analysis — against the reference evaluation of package oracle.
// Each check returns the first difference it finds, or nil.
package oraclecheck

import (
	"errors"
	"fmt"
	"maps"

	"lowutil/internal/costben"
	"lowutil/internal/deadness"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/oracle"
)

// Machine compares a VM run — m after Run returned runErr — with the
// oracle's evaluation of the same program: the error kind the run ended in,
// the output, and the step, allocation and native-work counters.
func Machine(want *oracle.Result, m *interp.Machine, runErr error) error {
	kind := ""
	if runErr != nil {
		var vmErr *interp.VMError
		if !errors.As(runErr, &vmErr) {
			return runErr
		}
		kind = vmErr.Kind.String()
	}
	switch {
	case kind != string(want.Err):
		return fmt.Errorf("error: engine %q, oracle %q", kind, want.Err)
	case fmt.Sprint(m.Output) != fmt.Sprint(want.Output):
		return fmt.Errorf("output: engine %v, oracle %v", m.Output, want.Output)
	case m.Steps != want.Steps || m.Allocs != want.Allocs || m.NativeWork != want.NativeWork:
		return fmt.Errorf("counters: steps %d/%d allocs %d/%d native %d/%d (engine/oracle)",
			m.Steps, want.Steps, m.Allocs, want.Allocs, m.NativeWork, want.NativeWork)
	}
	return nil
}

func key(n *depgraph.Node) oracle.Node {
	if n == nil {
		return oracle.None
	}
	return oracle.Node{Instr: n.In.ID, D: n.D}
}

// fromGraph reads the engine's Gcost into the oracle's form.
func fromGraph(g *depgraph.Graph) *oracle.Gcost {
	o := oracle.NewGcost(g.Prog)
	g.Nodes(func(n *depgraph.Node) {
		k := key(n)
		o.Freq[k] = n.Freq()
		n.Deps(func(d *depgraph.Node) { oracle.Add(o.Deps, k, key(d)) })
		n.RefEdges(func(a *depgraph.Node) { oracle.Add(o.Refs, k, key(a)) })
		g.Children(n, func(f int, c *depgraph.Node) { oracle.Add(o.Children, oracle.Loc{Alloc: k, Field: f}, key(c)) })
	})
	g.Locs(func(loc depgraph.Loc) {
		l := oracle.Loc{Alloc: key(loc.Alloc), Field: loc.Field}
		g.StoresOf(loc, func(n *depgraph.Node) { oracle.Add(o.Stores, l, key(n)) })
		g.LoadsOf(loc, func(n *depgraph.Node) { oracle.Add(o.Loads, l, key(n)) })
	})
	return o
}

func diff[K comparable, V any](what string, want, got map[K]V, eq func(V, V) bool) error {
	for k, w := range want {
		if g, ok := got[k]; !ok || !eq(w, g) {
			return fmt.Errorf("%s of %v: oracle %v, engine %v", what, k, w, got[k])
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("%s of %v: oracle none, engine %v", what, k, g)
		}
	}
	return nil
}

// Graph compares Gcost itself: nodes and frequencies, dep and reference
// edges, per-location store and load sets, and owner points-to children,
// reporting the first difference in each.
func Graph(want *oracle.Gcost, g *depgraph.Graph) error {
	got, eq := fromGraph(g), maps.Equal[oracle.Set, oracle.Set]
	return errors.Join(diff("frequency", want.Freq, got.Freq, func(a, b int64) bool { return a == b }),
		diff("deps", want.Deps, got.Deps, eq), diff("refs", want.Refs, got.Refs, eq),
		diff("stores", want.Stores, got.Stores, eq), diff("loads", want.Loads, got.Loads, eq),
		diff("children", want.Children, got.Children, eq))
}

// Metrics compares HRAC/HRAB of every node, RAC/RAB of every accessed
// location, and n-RAC/n-RAB at height of every allocation node of g
// between the oracle and the engine's analysis an of g. It walks the
// engine's nodes and locations; Graph checks that the oracle has the same.
func Metrics(want *oracle.Gcost, g *depgraph.Graph, an *costben.Analysis, height int) error {
	s := g.Freeze()
	for _, n := range s.Nodes {
		k := key(n)
		if w, e := want.HRAC(k), an.HRAC(n); w != e {
			return fmt.Errorf("HRAC(%v): oracle %d, engine %d", k, w, e)
		}
		w, wc := want.HRAB(k)
		if e, ec := an.HRAB(n); w != e || wc != ec {
			return fmt.Errorf("HRAB(%v): oracle %d,%v, engine %d,%v", k, w, wc, e, ec)
		}
		if !n.In.IsAlloc() {
			continue
		}
		if w, e := want.NRAC(k, height), an.NRAC(n, height); w != e {
			return fmt.Errorf("n-RAC(%v): oracle %v, engine %v", k, w, e)
		}
		b, bc := want.NRAB(k, height)
		if e, ec := an.NRABDetail(n, height); b != e || bc != ec {
			return fmt.Errorf("n-RAB(%v): oracle %v,%v, engine %v,%v", k, b, bc, e, ec)
		}
	}
	for _, loc := range s.Locs {
		l := oracle.Loc{Alloc: key(loc.Alloc), Field: loc.Field}
		if w, e := want.RAC(l), an.RAC(loc); w != e {
			return fmt.Errorf("RAC(%v): oracle %v, engine %v", l, w, e)
		}
		w, wc := want.RAB(l)
		if e := an.RAB(loc); wc != (e == costben.InfiniteRAB) || !wc && w != e {
			return fmt.Errorf("RAB(%v): oracle %v (consumed %v), engine %v", l, w, wc, e)
		}
	}
	return nil
}

// Deadness compares the D*/P* class of every node and IPD/IPP/NLD for a
// run of steps executed instructions.
func Deadness(want *oracle.Gcost, g *depgraph.Graph, steps int64) error {
	w, e := want.Deadness(steps), deadness.Analyze(g, steps)
	for n, out := range e.Out {
		if k := key(n); !n.IsConsumer() && (w.Dead[k] != (out == deadness.OutDead) || w.Pred[k] != (out == deadness.OutPredicate)) {
			return fmt.Errorf("deadness class of %v: oracle dead=%v pred=%v, engine outcome %b", k, w.Dead[k], w.Pred[k], out)
		}
	}
	if w.IPD != e.IPD() || w.IPP != e.IPP() || w.NLD != e.NLD() || len(e.Out) != len(want.Freq) {
		return fmt.Errorf("deadness: oracle IPD %v IPP %v NLD %v, engine %v %v %v (%d nodes, oracle %d)",
			w.IPD, w.IPP, w.NLD, e.IPD(), e.IPP(), e.NLD(), len(e.Out), len(want.Freq))
	}
	return nil
}

// All runs Graph, Metrics over a fresh analysis of g, and Deadness.
func All(want *oracle.Gcost, g *depgraph.Graph, steps int64, height int) error {
	if err := Graph(want, g); err != nil {
		return err
	}
	if err := Metrics(want, g, costben.NewAnalysis(g), height); err != nil {
		return err
	}
	return Deadness(want, g, steps)
}
