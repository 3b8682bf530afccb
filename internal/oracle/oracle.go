// Package oracle is a deliberately naive reference for the VM and the
// cost-benefit profiler. Run evaluates an IR program itself — its own
// frames, heap, comparisons, virtual dispatch, natives and error kinds — and
// builds Gcost as it goes, straight from the rules of Figure 4 of the paper,
// in plain maps; metrics.go reads HRAC/HRAB, RAC/RAB, n-RAC/n-RAB
// (Definitions 5–7) and IPD/IPP/NLD (§4.1) off that graph by one walk per
// definition. It imports only the IR, none of the interpreter or profiler it
// checks, and only tests and the fuzzer use it (see package oraclecheck).
package oracle

import "lowutil/internal/ir"

// Node is an abstract instruction instance: a static instruction ID plus a
// domain element (the context slot h(c), or -1 for context-free consumers).
type Node struct{ Instr, D int }

// None stands for "no node": an untracked value, and the owner of statics.
var None = Node{-1, -1}

// Loc is an abstract heap location O^d.f: Field is the field ID, -1 for
// array elements, or the static slot when Alloc is None.
type Loc struct {
	Alloc Node
	Field int
}

// Set is a set of nodes.
type Set map[Node]bool

// Gcost is the cost graph: node frequencies, dep edges (n → the nodes whose
// values n read), reference edges (heap store → base-object allocation),
// per-location store and load sets, and the allocation nodes of objects
// stored into each field of an object (points-to children).
type Gcost struct {
	Prog                    *ir.Program
	Freq                    map[Node]int64
	Deps, Refs              map[Node]Set
	Stores, Loads, Children map[Loc]Set
	uses                    map[Node]Set
}

// Add inserts v into the set m[k].
func Add[K comparable](m map[K]Set, k K, v Node) {
	if m[k] == nil {
		m[k] = Set{}
	}
	m[k][v] = true
}

// NewGcost returns an empty graph over prog.
func NewGcost(prog *ir.Program) *Gcost {
	return &Gcost{Prog: prog, Freq: map[Node]int64{}, Deps: map[Node]Set{}, Refs: map[Node]Set{},
		Stores: map[Loc]Set{}, Loads: map[Loc]Set{}, Children: map[Loc]Set{}}
}

// access is the heap effect of one executed instruction, as the evaluator
// resolved it: the abstract location, the concrete slot's last writer (nil
// for instructions that touch no heap slot) and, for stores, the allocation
// node of the stored object (None for ints and null).
type access struct {
	loc   Loc
	at    *Node
	child Node
}

func (g *Gcost) dep(n, def Node) {
	if def != None {
		Add(g.Deps, n, def)
	}
}

// node abstracts one executed instance of a value-producing instruction to
// (instruction, h(context)), where h folds the Bond–McKinley encoding into
// s slots, and counts it.
func (g *Gcost) node(in *ir.Instr, ctx, slots uint64) Node {
	n := Node{in.ID, int(ctx % slots)}
	g.Freq[n]++
	return n
}

// exec applies Figure 4 to one executed instruction of frame f and returns
// its node. The node depends on the last writers of the locals it reads —
// except, under thin slicing, the base pointer of a heap access or array
// length — and of the heap slot it loads; it becomes the last writer of its
// destination or of the slot it stores.
func (g *Gcost) exec(in *ir.Instr, f *frame, slots uint64, a access) Node {
	var n Node
	if in.IsConsumer() {
		n = Node{in.ID, -1}
		g.Freq[n]++
	} else {
		n = g.node(in, f.ctx, slots)
	}
	base := in.Op == ir.OpLoadField || in.Op == ir.OpStoreField || in.Op == ir.OpALoad ||
		in.Op == ir.OpAStore || in.Op == ir.OpArrayLen // A is a base pointer
	if in.Op == ir.OpArrayLen { // the length's writer is the allocation
		g.dep(n, a.loc.Alloc)
	}
	for i, r := range append([]int{in.A, in.B, in.C2}, in.Args...) {
		if r >= 0 && (i > 0 || !base) {
			g.dep(n, f.last[r])
		}
	}
	switch {
	case in.ReadsHeap() && in.Op != ir.OpArrayLen:
		g.dep(n, *a.at)
		Add(g.Loads, a.loc, n)
	case in.WritesHeap():
		*a.at = n
		Add(g.Stores, a.loc, n)
		if a.loc.Alloc != None { // statics hold references too, but trees root at allocations
			Add(g.Refs, n, a.loc.Alloc)
			if a.child != None {
				Add(g.Children, a.loc, a.child)
			}
		}
	}
	if in.Dst >= 0 {
		f.last[in.Dst] = n
	}
	return n
}

// enter passes the actuals' writers of call to the callee frame's formals
// and gives it its context: the caller's for a static call, the caller's
// chain extended with the receiver's allocation site for an instance call.
func enter(call *ir.Instr, caller, callee *frame, recv *object) {
	for i, a := range call.Args {
		callee.last[i] = caller.last[a]
	}
	callee.ctx = caller.ctx
	if recv != nil {
		callee.ctx = 3*caller.ctx + uint64(recv.site) + 1
	}
}

// returned assigns a returned value in the caller's context: the call
// becomes a node depending on the returned value's writer ret.
func (g *Gcost) returned(call *ir.Instr, caller *frame, slots uint64, ret Node) {
	n := g.node(call, caller.ctx, slots)
	g.dep(n, ret)
	caller.last[call.Dst] = n
}
