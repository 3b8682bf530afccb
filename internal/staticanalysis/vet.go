// Package staticanalysis holds the two zero-execution products built on the
// per-method analyses of internal/ssa and internal/interproc:
//
//   - Vet, a diagnostics suite (dead stores, write-only fields, unused
//     allocations, unreachable code, possibly-uninitialized reads,
//     callee-clobbered stores and the escape-shape lints) over pruned SSA,
//     surfaced as `lowutil vet`;
//   - PruneSet, a static pre-analysis that proves instructions irrelevant to
//     any heap value flow under the paper's thin-slicing rules, so the
//     dynamic profiler can skip Gcost event emission for them entirely. It
//     reads the reaching definitions of interproc.Flow.
//
// The paper's pipeline is purely dynamic — every executed instruction is
// traced into Gcost. This layer answers questions without running the
// program and makes the dynamic hot path cheaper.
package staticanalysis

import (
	"fmt"

	"lowutil/internal/interproc"
	"lowutil/internal/ir"
)

// Kind classifies a vet finding.
type Kind uint8

const (
	// KindDeadStore: a local definition whose value no path ever reads.
	KindDeadStore Kind = iota
	// KindWriteOnlyField: a field stored somewhere but loaded nowhere in the
	// whole program — the static shadow of a dynamically zero-benefit
	// location.
	KindWriteOnlyField
	// KindUnusedAlloc: an allocation whose object is only ever constructed
	// (stored into) and never read from or passed anywhere.
	KindUnusedAlloc
	// KindUnreachable: a basic block no path from the method entry reaches.
	KindUnreachable
	// KindUninitRead: a read of a slot some path reaches without
	// initializing (reads no path initializes are rejected at seal time).
	KindUninitRead
	// KindCalleeClobbered: a definition whose every use passes the value to
	// a call-argument position that no resolved callee ever reads — dead
	// work the per-method dead-store check cannot see.
	KindCalleeClobbered
	// KindConfinedAllocInLoop: a non-escaping allocation inside a loop whose
	// every use stays within the loop body — one fresh object per iteration
	// where a single reused object would do.
	KindConfinedAllocInLoop
	// KindCopyChain: an allocation exhibiting the alloc → populate →
	// copy-out → drop shape: the structure is populated, its contents are
	// copied into a different structure, and the container itself is
	// dropped — a transient copy vehicle.
	KindCopyChain
)

var kindNames = [...]string{
	KindDeadStore:           "dead-store",
	KindWriteOnlyField:      "write-only-field",
	KindUnusedAlloc:         "unused-alloc",
	KindUnreachable:         "unreachable-code",
	KindUninitRead:          "uninit-read",
	KindCalleeClobbered:     "callee-clobbered-store",
	KindConfinedAllocInLoop: "confined-alloc-in-loop",
	KindCopyChain:           "copy-chain",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Finding is one vet diagnostic, anchored to a method pc (or to a field for
// program-level findings, with Method == "" and PC == -1).
type Finding struct {
	Kind   Kind
	Class  string
	Method string
	PC     int
	Line   int
	Detail string
}

func (f Finding) String() string {
	if f.Method == "" {
		return fmt.Sprintf("%s: [%s] %s", f.Class, f.Kind, f.Detail)
	}
	loc := fmt.Sprintf("%s.%s:%d", f.Class, f.Method, f.PC)
	if f.Line > 0 {
		loc = fmt.Sprintf("%s (line %d)", loc, f.Line)
	}
	return fmt.Sprintf("%s: [%s] %s", loc, f.Kind, f.Detail)
}

// deadStoreOps are the value-producing opcodes eligible for dead-store
// reporting: recomputable work with no heap write, call, allocation, or
// consumer semantics. Loads are included — an unread loaded value is exactly
// the waste the paper measures — but allocations are left to the
// unused-alloc check, and calls/natives may have effects.
var deadStoreOps = map[ir.Op]bool{
	ir.OpConst:      true,
	ir.OpMove:       true,
	ir.OpBin:        true,
	ir.OpNeg:        true,
	ir.OpNot:        true,
	ir.OpInstanceOf: true,
	ir.OpLoadField:  true,
	ir.OpLoadStatic: true,
	ir.OpALoad:      true,
	ir.OpArrayLen:   true,
}

// writeOnlyFields finds instance and static fields stored somewhere but
// loaded nowhere in the program. With a call graph, loads and stores in
// unreachable methods no longer count: a field whose every load sits in dead
// code is reported (with a distinguishing message), and a field stored only
// in dead code is not reported at all.
func writeOnlyFields(prog *ir.Program, an *interproc.Analysis) []Finding {
	loaded := make(map[*ir.Field]bool)
	stored := make(map[*ir.Field]bool)
	loadedAnywhere := make(map[*ir.Field]bool)
	staticLoaded := make(map[*ir.StaticField]bool)
	staticStored := make(map[*ir.StaticField]bool)
	staticLoadedAnywhere := make(map[*ir.StaticField]bool)
	for _, in := range prog.Instrs {
		reachable := an == nil || an.CG.Reachable(in.Method)
		switch in.Op {
		case ir.OpLoadField:
			loadedAnywhere[in.Field] = true
			if reachable {
				loaded[in.Field] = true
			}
		case ir.OpStoreField:
			if reachable {
				stored[in.Field] = true
			}
		case ir.OpLoadStatic:
			staticLoadedAnywhere[in.Static] = true
			if reachable {
				staticLoaded[in.Static] = true
			}
		case ir.OpStoreStatic:
			if reachable {
				staticStored[in.Static] = true
			}
		}
	}
	detail := func(kind, name string, loadedSomewhere bool) string {
		if loadedSomewhere {
			return fmt.Sprintf("%s %s is stored but loaded only in unreachable code", kind, name)
		}
		return fmt.Sprintf("%s %s is stored but never loaded", kind, name)
	}
	var out []Finding
	for _, c := range prog.Classes {
		for _, f := range c.Fields {
			if stored[f] && !loaded[f] {
				out = append(out, Finding{
					Kind:   KindWriteOnlyField,
					Class:  c.Name,
					PC:     -1,
					Detail: detail("field", f.QualifiedName(), loadedAnywhere[f]),
				})
			}
		}
	}
	for _, sf := range prog.Statics {
		if staticStored[sf] && !staticLoaded[sf] {
			out = append(out, Finding{
				Kind:   KindWriteOnlyField,
				Class:  sf.Class.Name,
				PC:     -1,
				Detail: detail("static field", sf.QualifiedName(), staticLoadedAnywhere[sf]),
			})
		}
	}
	return out
}

// WriteOnlyFieldIDs returns the dense IDs of instance fields that are stored
// but never loaded anywhere in the program — the static cross-check the
// cost-benefit report compares against dynamically zero-benefit locations.
func WriteOnlyFieldIDs(prog *ir.Program) map[int]bool {
	loaded := make(map[int]bool)
	stored := make(map[int]bool)
	for _, in := range prog.Instrs {
		switch in.Op {
		case ir.OpLoadField:
			loaded[in.Field.ID] = true
		case ir.OpStoreField:
			stored[in.Field.ID] = true
		}
	}
	out := make(map[int]bool)
	for id := range stored {
		if !loaded[id] {
			out[id] = true
		}
	}
	return out
}
