package interproc

import (
	"reflect"
	"testing"

	"lowutil/internal/ir"
)

// buildDiamond constructs
//
//	B0: v0 = 1; if v0 == v0 goto B2
//	B1: v1 = 10; goto B3
//	B2: v1 = 20
//	B3: v2 = v1; return
//
// and returns the sealed method.
func buildDiamond(t *testing.T) *ir.Method {
	t.Helper()
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)                // pc0
	ifpc := mb.If(0, ir.Eq, 0, 0) // pc1, patched to else
	mb.Const(1, 10)               // pc2
	g := mb.Goto(0)               // pc3, patched to join
	elsePC := mb.PC()
	mb.Const(1, 20) // pc4
	join := mb.PC()
	mb.Move(2, 1)   // pc5
	mb.ReturnVoid() // pc6
	mb.Patch(ifpc, elsePC)
	mb.Patch(g, join)
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	return m
}

// use is one read of a definition: the reading pc and its base flag.
type use struct {
	PC   int
	Base bool
}

// readers inverts a flow into def → the reads of its value.
func readers(f *Flow) map[int][]use {
	out := make(map[int][]use)
	for pc, ops := range f.Operands {
		for _, op := range ops {
			for _, d := range op.Defs {
				out[d] = append(out[d], use{pc, op.Base})
			}
		}
	}
	return out
}

func TestReachingDefsDiamond(t *testing.T) {
	f := NewFlow(buildDiamond(t))
	want := []Operand{{Slot: 1, Defs: []int{2, 4}}}
	if got := f.Operands[5]; !reflect.DeepEqual(got, want) {
		t.Errorf("operands at the join = %+v, want both arm definitions of v1 %+v", got, want)
	}
	r := readers(f)
	for _, d := range []int{2, 4} {
		if want := []use{{5, false}}; !reflect.DeepEqual(r[d], want) {
			t.Errorf("uses of def %d = %v, want %v", d, r[d], want)
		}
	}
	if len(r[5]) != 0 {
		t.Errorf("v2's def must have no uses, got %v", r[5])
	}
}

func TestDefUseParamsAndBaseFlag(t *testing.T) {
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	fv := b.Field(cls, "v", ir.IntType)
	m := b.Method(cls, "get", true, 1, ir.IntType)
	mb := b.Body(m)
	mb.LoadField(1, 0, fv) // pc0: v1 = v0.v  (v0 is a base-pointer read)
	mb.Return(1)           // pc1
	mn := b.Method(cls, "main", true, 0, nil)
	b.Body(mn).ReturnVoid()
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}

	f := NewFlow(m)
	pd := len(m.Code) // the pseudo-definition of parameter slot 0
	if !isParamDef(m, pd) || isParamDef(m, 0) || paramOfDef(m, pd) != 0 {
		t.Fatal("parameter pseudo-definitions misclassified")
	}
	r := readers(f)
	if want := []use{{0, true}}; !reflect.DeepEqual(r[pd], want) {
		t.Errorf("param use = %v, want one base use at pc0", r[pd])
	}
	if want := []use{{1, false}}; !reflect.DeepEqual(r[0], want) {
		t.Errorf("load use = %v, want one value use at pc1", r[0])
	}
}

// TestSolveLeavesUnreachableAtBottom: a definition in a block no path from
// the entry reaches flows nowhere, and the block's own reads get no operand
// sets at all.
func TestSolveLeavesUnreachableAtBottom(t *testing.T) {
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)  // pc0
	g := mb.Goto(0) // pc1
	mb.Const(0, 7)  // pc2: unreachable block
	mb.Move(2, 0)   // pc3
	l := mb.PC()
	mb.Move(1, 0) // pc4
	mb.ReturnVoid()
	mb.Patch(g, l)
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	f := NewFlow(m)
	dead := f.CFG.BlockOf[2]
	if f.CFG.Reachable(dead) {
		t.Fatal("pc2's block should be unreachable")
	}
	if f.Operands[3] != nil {
		t.Errorf("unreachable read got operands %+v", f.Operands[3])
	}
	if want := []Operand{{Slot: 0, Defs: []int{0}}}; !reflect.DeepEqual(f.Operands[4], want) {
		t.Errorf("operands at pc4 = %+v, want only the reachable definition %+v", f.Operands[4], want)
	}
	if idom := ir.Dominators(f.CFG); idom[dead] != -1 {
		t.Errorf("idom of unreachable block = %d, want -1", idom[dead])
	}
}
