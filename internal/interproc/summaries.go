package interproc

import (
	"context"
	"sort"

	"lowutil/internal/ir"
)

// Loc is an abstract heap location: a static field slot, or an (abstract
// object, field) pair. Field holds the static slot when Static is set, the
// dense field ID otherwise (ElemField for array elements).
type Loc struct {
	Static bool
	Obj    ObjID
	Field  int
}

func locLess(a, b Loc) bool {
	if a.Static != b.Static {
		return b.Static // object locs first, static locs last
	}
	if a.Obj != b.Obj {
		return a.Obj < b.Obj
	}
	return a.Field < b.Field
}

// Summaries holds the per-method interprocedural summaries: transitive
// mod/ref location sets and the load-taint facts the instrumentation pruner
// consumes. All tables are indexed by ir.Method.ID and populated only for
// call-graph-reachable methods.
type Summaries struct {
	CG *CallGraph
	PT *PointsTo

	// retTainted[m] reports whether m's return value may derive from a heap
	// read anywhere in the program (the interprocedural refinement of
	// "call results are always tainted").
	retTainted []bool
	// paramTainted[m][i] reports whether any reachable call site may pass a
	// heap-derived value as parameter i of m.
	paramTainted [][]bool
	// deadParam[m][i] reports that m never reads formal parameter i at all
	// (no use, base or value, of its entry definition).
	deadParam [][]bool

	// mod/ref[m] are the abstract locations m may write/read, transitively
	// through callees.
	mod []map[Loc]bool
	ref []map[Loc]bool
}

// newSummaries computes the summaries to a global fixpoint over cg, polling
// ctx once per outer fixpoint iteration.
func newSummaries(ctx context.Context, cg *CallGraph, pt *PointsTo, flows map[int]*Flow) (*Summaries, error) {
	nm := countMethods(cg.Prog)
	s := &Summaries{
		CG:           cg,
		PT:           pt,
		retTainted:   make([]bool, nm),
		paramTainted: make([][]bool, nm),
		deadParam:    make([][]bool, nm),
		mod:          make([]map[Loc]bool, nm),
		ref:          make([]map[Loc]bool, nm),
	}
	for _, m := range cg.Methods() {
		s.paramTainted[m.ID] = make([]bool, m.Params)
		s.deadParam[m.ID] = make([]bool, m.Params)
	}
	s.computeDeadParams(flows)
	if err := s.computeTaint(ctx, flows); err != nil {
		return nil, err
	}
	if err := s.computeModRef(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// computeDeadParams marks formals whose entry definition reaches no operand.
func (s *Summaries) computeDeadParams(flows map[int]*Flow) {
	for _, m := range s.CG.Methods() {
		read := make([]bool, m.Params)
		mf := flows[m.ID]
		for pc := range mf.Operands {
			for _, op := range mf.Operands[pc] {
				for _, d := range op.Defs {
					if isParamDef(m, d) {
						read[paramOfDef(m, d)] = true
					}
				}
			}
		}
		for i := range read {
			s.deadParam[m.ID][i] = !read[i]
		}
	}
}

// computeTaint runs the interprocedural load-taint fixpoint: a definition is
// tainted when its value may derive from a heap read, transitively through
// copies, arithmetic, parameter passing, and returns. The local transfer
// function mirrors staticanalysis.PruneSet exactly, with the two
// interprocedural refinements: a call result is tainted only when some
// resolved target's return is, and a formal is tainted only when some
// reachable call site passes a tainted actual.
func (s *Summaries) computeTaint(ctx context.Context, flows map[int]*Flow) error {
	for changed := true; changed; {
		changed = false
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, m := range s.CG.Methods() {
			mf := flows[m.ID]
			taint := s.localTaint(m, mf)
			// Return taint: any tainted def reaching a return operand.
			if !s.retTainted[m.ID] {
				for pc := range m.Code {
					in := &m.Code[pc]
					if in.Op != ir.OpReturn || !in.HasA {
						continue
					}
					for _, op := range mf.Operands[pc] {
						for _, d := range op.Defs {
							if taint[d] {
								s.retTainted[m.ID] = true
								changed = true
							}
						}
					}
				}
			}
			// Parameter taint: push tainted actuals into targets.
			for pc := range m.Code {
				in := &m.Code[pc]
				if in.Op != ir.OpCall {
					continue
				}
				for ai, op := range mf.Operands[pc] {
					argTainted := false
					for _, d := range op.Defs {
						if taint[d] {
							argTainted = true
							break
						}
					}
					if !argTainted {
						continue
					}
					for _, t := range s.CG.Targets(in) {
						if ai < len(s.paramTainted[t.ID]) && !s.paramTainted[t.ID][ai] {
							s.paramTainted[t.ID][ai] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return nil
}

// localTaint computes per-definition taint for m under the current global
// assumptions. Indexes: pcs, then len(code)+slot parameter pseudo-defs.
func (s *Summaries) localTaint(m *ir.Method, mf *Flow) []bool {
	n := len(m.Code)
	taint := make([]bool, n+m.Params)
	for i := 0; i < m.Params; i++ {
		taint[n+i] = s.paramTainted[m.ID][i]
	}
	for pc := range m.Code {
		in := &m.Code[pc]
		if in.Def() < 0 {
			continue
		}
		switch in.Op {
		case ir.OpLoadField, ir.OpLoadStatic, ir.OpALoad, ir.OpArrayLen:
			taint[pc] = true
		case ir.OpCall:
			for _, t := range s.CG.Targets(in) {
				if s.retTainted[t.ID] {
					taint[pc] = true
					break
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for pc := range m.Code {
			if taint[pc] || m.Code[pc].Def() < 0 {
				continue
			}
			for _, op := range mf.Operands[pc] {
				if op.Base {
					continue
				}
				for _, d := range op.Defs {
					if taint[d] {
						taint[pc] = true
						changed = true
					}
				}
			}
		}
	}
	return taint
}

// computeModRef collects direct heap effects per method via the points-to
// relation, then closes them transitively over the call graph.
func (s *Summaries) computeModRef(ctx context.Context) error {
	for _, m := range s.CG.Methods() {
		mod := make(map[Loc]bool)
		ref := make(map[Loc]bool)
		for pc := range m.Code {
			in := &m.Code[pc]
			switch in.Op {
			case ir.OpStoreField:
				for _, o := range s.PT.VarPT(m, in.A) {
					mod[Loc{Obj: o, Field: in.Field.ID}] = true
				}
			case ir.OpAStore:
				for _, o := range s.PT.VarPT(m, in.A) {
					mod[Loc{Obj: o, Field: ElemField}] = true
				}
			case ir.OpStoreStatic:
				mod[Loc{Static: true, Field: in.Static.Slot}] = true
			case ir.OpLoadField:
				for _, o := range s.PT.VarPT(m, in.A) {
					ref[Loc{Obj: o, Field: in.Field.ID}] = true
				}
			case ir.OpALoad, ir.OpArrayLen:
				for _, o := range s.PT.VarPT(m, in.A) {
					ref[Loc{Obj: o, Field: ElemField}] = true
				}
			case ir.OpLoadStatic:
				ref[Loc{Static: true, Field: in.Static.Slot}] = true
			}
		}
		s.mod[m.ID] = mod
		s.ref[m.ID] = ref
	}
	for changed := true; changed; {
		changed = false
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, m := range s.CG.Methods() {
			for pc := range m.Code {
				in := &m.Code[pc]
				if in.Op != ir.OpCall {
					continue
				}
				for _, t := range s.CG.Targets(in) {
					for l := range s.mod[t.ID] {
						if !s.mod[m.ID][l] {
							s.mod[m.ID][l] = true
							changed = true
						}
					}
					for l := range s.ref[t.ID] {
						if !s.ref[m.ID][l] {
							s.ref[m.ID][l] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return nil
}

// Covers reports whether the summaries carry refined facts for m (i.e. m is
// reachable in the call graph). Callers must fall back to conservative
// assumptions for uncovered methods.
func (s *Summaries) Covers(m *ir.Method) bool { return s.CG.Reachable(m) }

// RetTainted reports whether m's return value may derive from a heap read.
func (s *Summaries) RetTainted(m *ir.Method) bool { return s.retTainted[m.ID] }

// CallResultTainted reports whether the result of OpCall site in may derive
// from a heap read — true iff some resolved target has a tainted return.
func (s *Summaries) CallResultTainted(in *ir.Instr) bool {
	for _, t := range s.CG.Targets(in) {
		if s.retTainted[t.ID] {
			return true
		}
	}
	return false
}

// ParamTainted reports whether parameter slot of m may receive a
// heap-derived value from any reachable call site.
func (s *Summaries) ParamTainted(m *ir.Method, slot int) bool {
	if slot >= len(s.paramTainted[m.ID]) {
		return false
	}
	return s.paramTainted[m.ID][slot]
}

// DeadParam reports whether m never reads formal parameter slot.
func (s *Summaries) DeadParam(m *ir.Method, slot int) bool {
	if slot >= len(s.deadParam[m.ID]) {
		return false
	}
	return s.deadParam[m.ID][slot]
}

// ArgIgnoredByAllTargets reports whether argument position ai of call site
// in is dead in every resolved target — the value is computed by the caller
// and then read by no callee. False when the site resolves to no target.
func (s *Summaries) ArgIgnoredByAllTargets(in *ir.Instr, ai int) bool {
	ts := s.CG.Targets(in)
	if len(ts) == 0 {
		return false
	}
	for _, t := range ts {
		if !s.DeadParam(t, ai) {
			return false
		}
	}
	return true
}

// Mod returns the abstract locations m may write, transitively, sorted.
func (s *Summaries) Mod(m *ir.Method) []Loc { return sortedLocs(s.mod[m.ID]) }

// Ref returns the abstract locations m may read, transitively, sorted.
func (s *Summaries) Ref(m *ir.Method) []Loc { return sortedLocs(s.ref[m.ID]) }

func sortedLocs(set map[Loc]bool) []Loc {
	out := make([]Loc, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return locLess(out[i], out[j]) })
	return out
}
