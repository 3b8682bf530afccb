// Package oracle is a deliberately naive reference for the cost-benefit
// profiler: an interp.Tracer that builds Gcost straight from the rules of
// Figure 4 of the paper, in plain maps, and reads HRAC/HRAB, RAC/RAB,
// n-RAC/n-RAB (Definitions 5–7) and IPD/IPP/NLD (§4.1) off it by one graph
// walk per definition. It imports only the interpreter and the IR, none of
// the engine it checks, and only tests and the fuzzer use it (see package
// oraclecheck).
package oracle

import (
	"lowutil/internal/interp"
	"lowutil/internal/ir"
)

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

func get[K comparable](m map[K]Node, k K) Node {
	if n, ok := m[k]; ok {
		return n
	}
	return None
}

type heapSlot struct {
	obj  *interp.Object // nil for statics
	slot int64
}

type frame struct {
	locals map[int]Node // last writer of each local
	ctx    uint64       // encoded receiver-object chain
}

// tracer builds a Gcost from interpreter events.
type tracer struct {
	G      *Gcost
	slots  uint64                  // s, the number of context slots
	writer map[heapSlot]Node       // the shadow heap: last writer of each slot
	tag    map[*interp.Object]Node // allocation node of each object
	args   []Node                  // tracking stack: actuals,
	ctx    uint64                  // callee context,
	call   bool                    // pushed by BeforeCall;
	ret    Node                    // the returned value's writer
}

// NewGcost returns an empty graph over prog.
func NewGcost(prog *ir.Program) *Gcost {
	return &Gcost{Prog: prog, Freq: map[Node]int64{}, Deps: map[Node]Set{}, Refs: map[Node]Set{},
		Stores: map[Loc]Set{}, Loads: map[Loc]Set{}, Children: map[Loc]Set{}}
}

// Profile runs prog to completion (maxSteps bounds it; 0 = unlimited) under
// the oracle tracer with s = slots context slots and returns the Gcost with
// the executed instruction count. It runs the interpreter's switch loop, so
// the reference shares no dispatch code with the profiled engine either.
// It models thin slicing as Figure 4 states it, not the traditional-slicing
// or control-tracking ablations.
func Profile(prog *ir.Program, slots int, maxSteps int64) (*Gcost, int64, error) {
	t := &tracer{G: NewGcost(prog), slots: uint64(slots), writer: map[heapSlot]Node{}, tag: map[*interp.Object]Node{}, ret: None}
	m := interp.New(prog)
	m.LegacyDispatch, m.Tracer, m.MaxSteps = true, t, maxSteps
	err := m.Run()
	return t.G, m.Steps, err
}

func (t *tracer) dep(n, def Node) {
	if def != None {
		Add(t.G.Deps, n, def)
	}
}

func (t *tracer) frame(fr *interp.Frame) *frame {
	f, ok := fr.Shadow.(*frame)
	if !ok {
		f = &frame{locals: map[int]Node{}}
		fr.Shadow = f
	}
	return f
}

// node abstracts one executed instance of a value-producing instruction to
// (instruction, h(context)), where h folds the Bond–McKinley encoding into
// s slots, and counts it.
func (t *tracer) node(in *ir.Instr, f *frame) Node {
	n := Node{in.ID, int(f.ctx % t.slots)}
	t.G.Freq[n]++
	return n
}

// Exec implements interp.Tracer. An executed instruction is a node that
// depends on the last writers of the locals it reads — except, under thin
// slicing, the base pointer of a heap access or array length — and of the
// heap slot it loads; it becomes the last writer of its destination or of
// the slot it stores.
func (t *tracer) Exec(ev *interp.Event) {
	in, f := ev.In, t.frame(ev.Frame)
	var n Node
	switch {
	case in.Op == ir.OpGoto || in.Op == ir.OpCall || in.Op == ir.OpReturn:
		return
	case in.IsConsumer():
		n = Node{in.ID, -1}
		t.G.Freq[n]++
	default:
		n = t.node(in, f)
	}
	var loc Loc
	var at heapSlot
	switch in.Op {
	case ir.OpNew, ir.OpNewArray:
		t.tag[ev.New] = n
	case ir.OpLoadField, ir.OpStoreField:
		loc, at = Loc{get(t.tag, ev.Base), in.Field.ID}, heapSlot{ev.Base, int64(in.Field.Slot)}
	case ir.OpALoad, ir.OpAStore:
		loc, at = Loc{get(t.tag, ev.Base), -1}, heapSlot{ev.Base, ev.Index}
	case ir.OpLoadStatic, ir.OpStoreStatic:
		loc, at = Loc{None, in.Static.Slot}, heapSlot{nil, int64(in.Static.Slot)}
	case ir.OpArrayLen: // the length's writer is the allocation
		t.dep(n, get(t.tag, ev.Base))
	}
	base := at.obj != nil || in.Op == ir.OpArrayLen // A is a base pointer
	for i, r := range append([]int{in.A, in.B, in.C2}, in.Args...) {
		if r >= 0 && (i > 0 || !base) {
			t.dep(n, get(f.locals, r))
		}
	}
	switch {
	case in.ReadsHeap() && in.Op != ir.OpArrayLen:
		t.dep(n, get(t.writer, at))
		Add(t.G.Loads, loc, n)
	case in.WritesHeap():
		t.writer[at] = n
		Add(t.G.Stores, loc, n)
		if loc.Alloc != None { // statics hold references too, but trees root at allocations
			Add(t.G.Refs, n, loc.Alloc)
			if c := ev.Val.Ref; ev.Val.K == ir.KindRef && c != nil && get(t.tag, c) != None {
				Add(t.G.Children, loc, get(t.tag, c))
			}
		}
	}
	if in.Dst >= 0 {
		f.locals[in.Dst] = n
	}
}

// BeforeCall implements interp.Tracer: push the actuals and the callee's
// context (for instance calls, the caller's chain extended with the
// receiver's allocation site).
func (t *tracer) BeforeCall(in *ir.Instr, caller *interp.Frame, _ *ir.Method, recv *interp.Object) {
	f := t.frame(caller)
	t.args = t.args[:0]
	for _, a := range in.Args {
		t.args = append(t.args, get(f.locals, a))
	}
	t.ctx, t.call = f.ctx, true
	if recv != nil {
		t.ctx = 3*f.ctx + uint64(recv.Site) + 1
	}
}

// EnterMethod implements interp.Tracer: pop the actuals into the formals.
func (t *tracer) EnterMethod(fr *interp.Frame, recv *interp.Object) {
	fr.Shadow = nil
	f := t.frame(fr)
	switch {
	case t.call:
		for i, a := range t.args {
			f.locals[i] = a
		}
		f.ctx, t.call = t.ctx, false
	case recv != nil:
		f.ctx = uint64(recv.Site) + 1
	}
}

// BeforeReturn implements interp.Tracer: push the returned value's writer.
func (t *tracer) BeforeReturn(in *ir.Instr, fr *interp.Frame) {
	t.ret = None
	if in.HasA {
		t.ret = get(t.frame(fr).locals, in.A)
	}
}

// AfterCall implements interp.Tracer: a call with a destination assigns
// the returned value in the caller's context.
func (t *tracer) AfterCall(in *ir.Instr, caller *interp.Frame, hasValue bool) {
	ret := t.ret
	t.ret = None
	if hasValue && in != nil && in.Dst >= 0 {
		f := t.frame(caller)
		n := t.node(in, f)
		t.dep(n, ret)
		f.locals[in.Dst] = n
	}
}
