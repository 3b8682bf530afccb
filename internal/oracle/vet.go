package oracle

import "lowutil/internal/ir"

// This file is the reference for the per-method checks of `lowutil vet`.
// Each check is stated as a property of paths through one method's
// instructions and decided by a plain search from the definition or read in
// question: instruction successors are derived here from the opcodes, with
// no CFG, dominators, bit vectors or SSA. The two whole-program facts the
// checks consult come from the caller (see VetFacts).

// VetFinding is one per-method vet finding: the check's kind, spelled as
// staticanalysis.Kind prints it, and the instruction it is anchored to.
type VetFinding struct {
	Kind   string
	Method *ir.Method
	PC     int
}

// VetFacts are the whole-program facts the per-method checks need but the IR
// alone cannot give; the caller derives them from its call graph, summaries
// and points-to. Both must be false for an instruction whose method the call
// graph does not reach; a nil fact is false everywhere.
type VetFacts struct {
	// ArgIgnored reports that every target of call ignores argument i.
	ArgIgnored func(call *ir.Instr, i int) bool
	// AllocUnused reports that no reachable instruction reads an object
	// allocated at site, under points-to.
	AllocUnused func(site *ir.Instr) bool
}

// Vet runs the per-method checks over every method of prog: dead stores,
// callee-clobbered stores, unused allocations, unreachable code and
// possibly-uninitialized reads, at most one finding per kind and pc.
func Vet(prog *ir.Program, facts VetFacts) []VetFinding {
	var out []VetFinding
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			out = append(out, vetMethod(m, facts)...)
		}
	}
	return out
}

// succs returns the instructions control may pass to right after pc.
func succs(m *ir.Method, pc int) []int {
	in := &m.Code[pc]
	var out []int
	switch in.Op {
	case ir.OpReturn:
		return nil
	case ir.OpGoto:
		return []int{in.Target}
	case ir.OpIf:
		out = append(out, in.Target)
	}
	if pc+1 < len(m.Code) {
		out = append(out, pc+1)
	}
	return out
}

// search visits, once each, every instruction reachable from start, where
// visit(pc) returning false stops the paths through pc.
func search(m *ir.Method, start []int, visit func(pc int) bool) {
	seen := make([]bool, len(m.Code))
	work := append([]int(nil), start...)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		if visit(pc) {
			work = append(work, succs(m, pc)...)
		}
	}
}

// read is one operand read of a slot.
type read struct {
	pc   int
	base bool
}

// readsOf returns the reads of the value defined at pc: every operand read
// of its slot on some path from pc that no other definition of the slot
// interrupts. An instruction reads its operands before it writes.
func readsOf(m *ir.Method, pc int) []read {
	slot := m.Code[pc].Def()
	var out []read
	search(m, succs(m, pc), func(q int) bool {
		m.Code[q].Uses(func(s int, base bool) {
			if s == slot {
				out = append(out, read{q, base})
			}
		})
		return m.Code[q].Def() != slot
	})
	return out
}

// isDeadStoreCandidate reports whether in is recomputable work whose unread
// value is worth reporting: no heap write, call, allocation or consumer, and
// not the zero or null the front end writes for a declaration without an
// initializer.
func isDeadStoreCandidate(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConst:
		return !in.IsNull && in.Imm != 0
	case ir.OpMove, ir.OpBin, ir.OpNeg, ir.OpNot, ir.OpInstanceOf,
		ir.OpLoadField, ir.OpLoadStatic, ir.OpALoad, ir.OpArrayLen:
		return true
	}
	return false
}

// onlyConstructed reports whether every read of the object allocated at pc,
// followed through local copies, writes into it: a field or element store
// with the object as base.
func onlyConstructed(m *ir.Method, pc int) bool {
	seen := map[int]bool{pc: true}
	work := []int{pc}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range readsOf(m, d) {
			in := &m.Code[r.pc]
			switch {
			case in.Op == ir.OpMove:
				if !seen[r.pc] {
					seen[r.pc] = true
					work = append(work, r.pc)
				}
			case r.base && (in.Op == ir.OpStoreField || in.Op == ir.OpAStore):
			default:
				return false
			}
		}
	}
	return true
}

func vetMethod(m *ir.Method, facts VetFacts) []VetFinding {
	n := len(m.Code)
	if n == 0 {
		return nil
	}
	var out []VetFinding
	report := func(kind string, pc int) {
		out = append(out, VetFinding{Kind: kind, Method: m, PC: pc})
	}
	reachable := make([]bool, n)
	search(m, []int{0}, func(pc int) bool {
		reachable[pc] = true
		return true
	})

	for pc := range m.Code {
		in := &m.Code[pc]
		if !reachable[pc] {
			continue
		}
		// A dead store is a definition no read is reached by; a
		// callee-clobbered store is one every read of which passes the
		// value only to call arguments no target reads.
		if isDeadStoreCandidate(in) {
			reads := readsOf(m, pc)
			clobbered := facts.ArgIgnored != nil
			for _, r := range reads {
				c := &m.Code[r.pc]
				if !clobbered || c.Op != ir.OpCall {
					clobbered = false
					break
				}
				for i, a := range c.Args {
					if a == in.Dst && !facts.ArgIgnored(c, i) {
						clobbered = false
					}
				}
			}
			switch {
			case len(reads) == 0:
				report("dead-store", pc)
			case clobbered:
				report("callee-clobbered-store", pc)
			}
		}
		// An unused allocation is one whose object is only ever written
		// into, locally or under points-to.
		if in.IsAlloc() && (onlyConstructed(m, pc) || facts.AllocUnused != nil && facts.AllocUnused(in)) {
			report("unused-alloc", pc)
		}
	}

	// Unreachable code: a basic block starts at the entry, at a jump target
	// and after a jump or return; an unreachable one is reported at its first
	// instruction unless it holds only gotos and void returns, which the
	// front end emits as plumbing.
	leader := make([]bool, n)
	leader[0] = true
	for pc := range m.Code {
		switch in := &m.Code[pc]; in.Op {
		case ir.OpGoto, ir.OpIf:
			leader[in.Target] = true
			fallthrough
		case ir.OpReturn:
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}
	for start := 0; start < n; {
		end, plumbing := start, true
		for end == start || end < n && !leader[end] {
			in := &m.Code[end]
			plumbing = plumbing && (in.Op == ir.OpGoto || in.Op == ir.OpReturn && !in.HasA)
			end++
		}
		if !reachable[start] && !plumbing {
			report("unreachable-code", start)
		}
		start = end
	}

	// A read of a local is possibly uninitialized when some path from the
	// entry reaches it with no earlier definition of the slot; parameters
	// are defined on entry. One finding per instruction, for its first such
	// operand.
	bare := make(map[int][]bool) // slot → instructions reached before any definition of it
	bareAt := func(s, pc int) bool {
		if bare[s] == nil {
			bare[s] = make([]bool, n)
			search(m, []int{0}, func(q int) bool {
				bare[s][q] = true
				return m.Code[q].Def() != s
			})
		}
		return bare[s][pc]
	}
	for pc := range m.Code {
		found := false
		m.Code[pc].Uses(func(s int, _ bool) {
			if !found && s >= m.Params && bareAt(s, pc) {
				found = true
				report("uninit-read", pc)
			}
		})
	}
	return out
}
