package ir

import (
	"reflect"
	"testing"
)

func TestDominatorsDiamond(t *testing.T) {
	m := buildDiamondMethod(t)
	cfg := NewCFG(m)
	if cfg.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", cfg.NumBlocks())
	}
	idom := Dominators(cfg)
	// Entry dominates everything; neither arm dominates the join.
	for b := 1; b < 4; b++ {
		if idom[b] != 0 {
			t.Errorf("idom[%d] = %d, want 0", b, idom[b])
		}
	}
	d := NewDomTree(cfg)
	if !d.Dominates(0, 3) {
		t.Error("entry must dominate the join")
	}
	if d.Dominates(1, 3) || d.Dominates(2, 3) {
		t.Error("no single arm may dominate the join")
	}
	if !d.Dominates(3, 3) {
		t.Error("dominance must be reflexive")
	}
}

// TestDomTreeEntryFrontier: when a loop's back edge returns to pc 0, the
// entry is a join of the function-entry edge and the back edge, so it lies
// in its own dominance frontier and in that of every block on the loop.
//
//	B0: v2 = v1; v1 = 5; if v0 < v2 goto B0
//	B1: if v0 == v0 goto B3
//	B2: v1 = 7; goto B0
//	B3: return
//
// The diamond's frontiers are the classic ones: each arm's is the join.
func TestDomTreeEntryFrontier(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	f := b.Method(cls, "f", true, 1, nil)
	mb := b.Body(f)
	mb.Move(2, 1)              // pc0
	mb.Const(1, 5)             // pc1
	mb.If(0, Lt, 2, 0)         // pc2: back edge to the entry
	ifpc := mb.If(0, Eq, 0, 0) // pc3, patched past the second latch
	mb.Const(1, 7)             // pc4
	mb.Goto(0)                 // pc5: second back edge to the entry
	mb.Patch(ifpc, mb.PC())
	mb.ReturnVoid() // pc6
	mn := b.Method(cls, "main", true, 0, nil)
	b.Body(mn).ReturnVoid()
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	d := NewDomTree(NewCFG(f))
	want := [][]int{{0}, {0}, {0}, {}}
	for blk, w := range want {
		if got := d.Frontier[blk]; len(got) != len(w) || len(w) > 0 && !reflect.DeepEqual(got, w) {
			t.Errorf("Frontier[%d] = %v, want %v", blk, got, w)
		}
	}

	diamond := NewDomTree(NewCFG(buildDiamondMethod(t)))
	for blk, w := range [][]int{{}, {3}, {3}, {}} {
		if got := diamond.Frontier[blk]; len(got) != len(w) || len(w) > 0 && !reflect.DeepEqual(got, w) {
			t.Errorf("diamond Frontier[%d] = %v, want %v", blk, got, w)
		}
	}
}
