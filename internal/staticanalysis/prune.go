package staticanalysis

import (
	"lowutil/internal/interproc"
	"lowutil/internal/ir"
)

// PruneStats summarizes what PruneSet proved.
type PruneStats struct {
	// Candidates is the number of instructions of prunable opcodes examined.
	Candidates int
	// Pruned is the number proven irrelevant to heap value flow.
	Pruned int
}

// pruneOps are the opcodes PruneSet may remove from tracing: pure, local,
// effect-free value producers. Loads, stores and allocations stay — they are
// the paper's cost/benefit events themselves — and calls, natives and
// predicates carry stack or consumer semantics the profiler must see.
var pruneOps = map[ir.Op]bool{
	ir.OpConst:      true,
	ir.OpMove:       true,
	ir.OpBin:        true,
	ir.OpNeg:        true,
	ir.OpNot:        true,
	ir.OpInstanceOf: true,
}

// PruneSet returns, indexed by ir.Instr.ID, the instructions whose Gcost
// events the tracer may skip without changing any thin-sliced cost-benefit
// result. The proof obligation has two halves, both discharged from the
// def-use chains of interproc.Flow (locals are frame-private, so the chains
// are complete):
//
//  1. The instruction's node must feed nothing the analyses walk forward
//     from a store or backward from a load: every use of its value is a
//     base-pointer operand — which thin slicing deliberately ignores, per
//     the paper base pointers explain *how* a value moved, not *what*
//     moved — or a use by another pruned instruction (dead expression
//     trees prune as a unit, computed as a greatest fixpoint).
//
//  2. The instruction's node must not sit inside any location's forward
//     benefit slice (HRAB counts every transitive reader of a loaded
//     value). That holds exactly when no operand value derives from a heap
//     read, a call result, or a parameter — a "load taint" fixpoint over
//     the reaching definitions. Constants and fresh allocations are
//     taint-free.
//
// The guarantee targets thin slicing: traditional slicing consumes base
// pointers, so callers must not apply the set when that mode is on. Pruning
// gates event emission only — the interpreter still executes the
// instruction, so program behavior, outputs and step counts are identical;
// only the trace gets cheaper.
func PruneSet(prog *ir.Program) ([]bool, PruneStats) {
	return PruneSetWith(prog, nil)
}

// PruneSetWith is PruneSet with interprocedural taint summaries. When sum is
// non-nil, the two conservative worst-case assumptions of the intraprocedural
// analysis are replaced by whole-program facts for every method the call
// graph covers: a formal parameter is tainted only when some reachable call
// site may pass it a heap-derived value, and a call result is tainted only
// when some resolved target's return value is. Both refinements shrink the
// taint set monotonically, so the prune set is always a superset of
// PruneSet's — methods outside the call graph keep the conservative rules.
func PruneSetWith(prog *ir.Program, sum *interproc.Summaries) ([]bool, PruneStats) {
	prune := make([]bool, len(prog.Instrs))
	var st PruneStats
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			if sum != nil && !sum.Covers(m) {
				pruneMethod(m, prune, &st, nil)
			} else {
				pruneMethod(m, prune, &st, sum)
			}
		}
	}
	return prune, st
}

func pruneMethod(m *ir.Method, prune []bool, st *PruneStats, sum *interproc.Summaries) {
	flow := interproc.NewFlow(m)
	cfg := flow.CFG
	n := len(m.Code)

	// inputs[pc] lists the definitions feeding pc's value operands (base
	// operands excluded — thin slicing never consumes them); readers[d],
	// its inverse, lists the instructions reading definition d that way.
	inputs := make([][]int, n)
	readers := make([][]int, n+m.Params)
	for pc, ops := range flow.Operands {
		for _, op := range ops {
			if op.Base {
				continue
			}
			for _, d := range op.Defs {
				readers[d] = append(readers[d], pc)
				if m.Code[pc].Def() >= 0 {
					inputs[pc] = append(inputs[pc], d)
				}
			}
		}
	}

	// Load taint: true when the definition's value may derive from a heap
	// read, a call/native result, an array length, or a parameter — anything
	// whose dependence chain can reach back to a load node, putting every
	// transitive reader inside that location's forward benefit slice.
	tainted := make([]bool, n+m.Params)
	for s := 0; s < m.Params; s++ {
		if sum != nil {
			tainted[n+s] = sum.ParamTainted(m, s)
		} else {
			tainted[n+s] = true
		}
	}
	for pc := range m.Code {
		in := &m.Code[pc]
		if in.Def() < 0 {
			continue
		}
		switch in.Op {
		case ir.OpLoadField, ir.OpLoadStatic, ir.OpALoad, ir.OpArrayLen:
			tainted[pc] = true
		case ir.OpCall:
			// ArrayLen depends on the allocation node, which an
			// allocation-size value chain can make load-reachable; call
			// results chain into callee internals — unless the summaries
			// prove every resolved target returns a taint-free value.
			// Native results are left untainted: native nodes are consumer
			// sinks, and every forward benefit walk stops at consumers
			// without traversing them.
			if sum != nil {
				tainted[pc] = sum.CallResultTainted(in)
			} else {
				tainted[pc] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for pc := range m.Code {
			if tainted[pc] || m.Code[pc].Def() < 0 {
				continue
			}
			for _, d := range inputs[pc] {
				if tainted[d] {
					tainted[pc] = true
					changed = true
					break
				}
			}
		}
	}

	// Greatest fixpoint: start from every untainted pure candidate, then
	// strike any whose value reaches a non-pruned consumer.
	cand := make([]bool, n)
	for pc := range m.Code {
		in := &m.Code[pc]
		if pruneOps[in.Op] && in.Def() >= 0 && cfg.Reachable(cfg.BlockOf[pc]) {
			st.Candidates++
			cand[pc] = !tainted[pc]
		}
	}
	for changed := true; changed; {
		changed = false
		for pc := range m.Code {
			if !cand[pc] {
				continue
			}
			for _, r := range readers[pc] {
				if m.Code[r].Def() < 0 || !cand[r] {
					cand[pc] = false
					changed = true
					break
				}
			}
		}
	}
	for pc := range m.Code {
		if cand[pc] {
			prune[m.Code[pc].ID] = true
			st.Pruned++
		}
	}
}
