// Package ssa builds a pruned static single assignment form over the
// three-address IR and runs the sparse analyses the static low-utility
// pipeline needs: sparse conditional constant propagation (SCCP), copy
// propagation, dominance-based value numbering, a natural-loop forest with
// trip-count inference, and the per-instruction static frequency weights
// that turn PR 3's frequency-blind Gcost bounds into a symbolic cost model.
//
// The representation is deliberately thin: the flat ir.Method body stays the
// single source of truth, and the SSA overlay maps every instruction operand
// to the value it reads and every definition to the value it creates. Phi
// functions exist only in the overlay. Destruct rewrites the body back to
// flat IR (one fresh slot per value, phi copies on the incoming edges) and
// the round-trip is verified against ir.Validate and the interpreter.
package ssa

import (
	"fmt"

	"lowutil/internal/ir"
)

// ValID names an SSA value within one Func. None marks "no value".
type ValID int32

// None is the absent value.
const None ValID = -1

// ValKind classifies how an SSA value is defined.
type ValKind uint8

const (
	// VParam is a method parameter: the value slot s holds at entry, s < Params.
	VParam ValKind = iota
	// VInstr is the destination of the instruction at PC.
	VInstr
	// VPhi is a phi placed at the entry of Block, with one argument per
	// predecessor edge.
	VPhi
	// VUndef is the value of a not-yet-initialized slot. It appears only as
	// a phi argument: the IR validator rejects bodies where a reachable
	// instruction reads a slot no path initializes, so renaming can never
	// surface an undef at a real operand.
	VUndef
)

var valKindNames = [...]string{VParam: "param", VInstr: "instr", VPhi: "phi", VUndef: "undef"}

func (k ValKind) String() string {
	if int(k) < len(valKindNames) {
		return valKindNames[k]
	}
	return fmt.Sprintf("valkind(%d)", uint8(k))
}

// Value is one SSA value: a versioned definition of an original local slot.
type Value struct {
	Kind ValKind
	// Slot is the original local slot this value versions.
	Slot int
	// Version numbers the value among its slot's definitions (printing only).
	Version int
	// Block is the defining block: the phi's block for VPhi, the containing
	// block for VInstr, the entry for VParam and VUndef.
	Block int
	// PC is the defining instruction for VInstr; -1 otherwise.
	PC int
	// Args are the phi arguments, parallel to CFG.Blocks[Block].Preds.
	Args []ValID
}

// Use is one read of a value: either operand OpIdx of the instruction at PC
// (in Instr.Uses callback order), or argument ArgIdx of the phi value Phi
// (PC == -1 then).
type Use struct {
	PC    int
	OpIdx int
	// Base marks a base-pointer operand (thin slicing excludes those from
	// value flow); always false for phi uses.
	Base   bool
	Phi    ValID
	ArgIdx int
}

// IsPhi reports whether the use is a phi argument.
func (u Use) IsPhi() bool { return u.PC < 0 }

// Func is the pruned SSA form of one method body.
type Func struct {
	M   *ir.Method
	CFG *ir.CFG
	Dom *ir.DomTree

	// Vals holds every SSA value, indexed by ValID.
	Vals []Value
	// Phis[b] lists the phi values at block b's entry, ascending by slot.
	Phis [][]ValID
	// Operands[pc] gives, in Instr.Uses callback order, the value each
	// operand of the instruction at pc reads. Unreachable pcs have nil rows.
	Operands [][]ValID
	// DefOf[pc] is the value the instruction at pc defines, or None.
	DefOf []ValID

	// uses[v] lists the recorded uses of value v, in renaming order.
	uses [][]Use
	// undefOf[s] memoizes the per-slot undef value.
	undefOf []ValID
	// NumPhis counts the phi values (for stats and benchmarks).
	NumPhis int
}

// Uses returns the recorded uses of v: instruction operands and phi
// arguments. The slice is owned by the Func; callers must not mutate it.
func (f *Func) Uses(v ValID) []Use { return f.uses[v] }

// NumVals returns the number of SSA values.
func (f *Func) NumVals() int { return len(f.Vals) }

// Build constructs pruned SSA for m over cfg (nil builds a fresh CFG).
// Phi placement uses the iterated dominance frontier of each slot's
// definition blocks, filtered by liveness (a phi is placed only where the
// slot is live-in), which is exactly the pruned-SSA recipe.
func Build(m *ir.Method, cfg *ir.CFG) *Func {
	if cfg == nil {
		cfg = ir.NewCFG(m)
	}
	f := &Func{
		M:        m,
		CFG:      cfg,
		Dom:      ir.NewDomTree(cfg),
		Phis:     make([][]ValID, cfg.NumBlocks()),
		Operands: make([][]ValID, len(m.Code)),
		DefOf:    make([]ValID, len(m.Code)),
		undefOf:  make([]ValID, m.NumLocals),
	}
	for pc := range f.DefOf {
		f.DefOf[pc] = None
	}
	for s := range f.undefOf {
		f.undefOf[s] = None
	}
	f.placePhis(f.liveIn())
	f.rename()
	f.recordPhiUses()
	// addUse pads lazily, so values created after the last recorded use
	// (e.g. a trailing unused definition) would leave uses short of Vals.
	for len(f.uses) < len(f.Vals) {
		f.uses = append(f.uses, nil)
	}
	return f
}

// liveIn computes, per block, the slots live at block entry — the pruning
// filter for phi placement. A small self-contained backward bitset solver:
// no other package in the repository computes liveness.
func (f *Func) liveIn() []bitset {
	m, cfg := f.M, f.CFG
	nb := cfg.NumBlocks()
	use := make([]bitset, nb)
	def := make([]bitset, nb)
	in := make([]bitset, nb)
	out := newBitset(m.NumLocals)
	for b := 0; b < nb; b++ {
		use[b] = newBitset(m.NumLocals)
		def[b] = newBitset(m.NumLocals)
		in[b] = newBitset(m.NumLocals)
		blk := &cfg.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			inst := &m.Code[pc]
			inst.Uses(func(s int, _ bool) {
				if !def[b].has(s) {
					use[b].set(s)
				}
			})
			if d := inst.Def(); d >= 0 {
				def[b].set(d)
			}
		}
	}
	// Postorder iteration (reverse RPO) until fixpoint.
	for changed := true; changed; {
		changed = false
		for i := len(cfg.RPO) - 1; i >= 0; i-- {
			b := cfg.RPO[i]
			out.clearAll()
			for _, s := range cfg.Blocks[b].Succs {
				out.union(in[s])
			}
			out.andNot(def[b])
			out.union(use[b])
			if !out.equal(in[b]) {
				copy(in[b], out)
				changed = true
			}
		}
	}
	return in
}

// placePhis inserts pruned phis: for every slot, at the iterated dominance
// frontier of its definition blocks, wherever the slot is live-in.
func (f *Func) placePhis(liveIn []bitset) {
	m, cfg := f.M, f.CFG
	nb := cfg.NumBlocks()
	defBlocks := make([][]int, m.NumLocals)
	seenDef := make([]int, nb)
	for i := range seenDef {
		seenDef[i] = -1
	}
	for s := 0; s < m.Params && s < m.NumLocals; s++ {
		defBlocks[s] = append(defBlocks[s], 0)
	}
	for _, b := range cfg.RPO {
		blk := &cfg.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			if d := m.Code[pc].Def(); d >= 0 {
				if len(defBlocks[d]) == 0 || defBlocks[d][len(defBlocks[d])-1] != b {
					defBlocks[d] = append(defBlocks[d], b)
				}
			}
		}
	}
	hasPhi := make([]int, nb) // last slot for which a phi was placed, -1 sentinel
	onWork := make([]int, nb)
	for i := range hasPhi {
		hasPhi[i] = -1
		onWork[i] = -1
	}
	var work []int
	for s := 0; s < m.NumLocals; s++ {
		work = work[:0]
		for _, b := range defBlocks[s] {
			work = append(work, b)
			onWork[b] = s
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, j := range f.Dom.Frontier[b] {
				if hasPhi[j] == s || !liveIn[j].has(s) {
					continue
				}
				hasPhi[j] = s
				// A phi at the entry block carries one extra trailing
				// argument for the virtual function-entry edge (the
				// parameter or undef value flowing in from the caller).
				nargs := len(f.CFG.Blocks[j].Preds)
				if j == 0 {
					nargs++
				}
				args := make([]ValID, nargs)
				for i := range args {
					args[i] = None // stays None for unreachable predecessor edges
				}
				v := ValID(len(f.Vals))
				f.Vals = append(f.Vals, Value{Kind: VPhi, Slot: s, Block: j, PC: -1, Args: args})
				f.Phis[j] = append(f.Phis[j], v)
				f.NumPhis++
				if onWork[j] != s {
					onWork[j] = s
					work = append(work, j)
				}
			}
		}
	}
}

// rename walks the dominator tree depth-first, maintaining a per-slot stack
// of the current value, and fills Operands, DefOf, phi arguments and the
// per-value use lists.
func (f *Func) rename() {
	m, cfg := f.M, f.CFG
	stacks := make([][]ValID, m.NumLocals)
	versions := make([]int, m.NumLocals)

	newVal := func(kind ValKind, slot, block, pc int) ValID {
		v := ValID(len(f.Vals))
		f.Vals = append(f.Vals, Value{Kind: kind, Slot: slot, Version: versions[slot], Block: block, PC: pc})
		versions[slot]++
		return v
	}
	top := func(s int) ValID {
		if st := stacks[s]; len(st) > 0 {
			return st[len(st)-1]
		}
		if f.undefOf[s] == None {
			f.undefOf[s] = ValID(len(f.Vals))
			f.Vals = append(f.Vals, Value{Kind: VUndef, Slot: s, Version: -1, Block: 0, PC: -1})
		}
		return f.undefOf[s]
	}

	for s := 0; s < m.Params && s < m.NumLocals; s++ {
		stacks[s] = append(stacks[s], newVal(VParam, s, 0, -1))
	}
	// Phi values were created before renaming; give them versions now, in
	// dominator-tree preorder, so the numbering reads naturally.

	edgeArg := edgeArgIndex(cfg)

	type frame struct {
		b      int
		child  int
		pushed []int // slots pushed in this block, popped on exit
	}
	var stack []frame
	enter := func(b int) frame {
		fr := frame{b: b}
		if b == 0 {
			// Fill the virtual function-entry arguments of entry phis before
			// the phis themselves shadow the parameter/undef values.
			for _, v := range f.Phis[0] {
				args := f.Vals[v].Args
				args[len(args)-1] = top(f.Vals[v].Slot)
			}
		}
		for _, v := range f.Phis[b] {
			slot := f.Vals[v].Slot
			f.Vals[v].Version = versions[slot]
			versions[slot]++
			stacks[slot] = append(stacks[slot], v)
			fr.pushed = append(fr.pushed, slot)
		}
		blk := &cfg.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			inst := &m.Code[pc]
			opIdx := 0
			inst.Uses(func(s int, base bool) {
				v := top(s)
				f.Operands[pc] = append(f.Operands[pc], v)
				f.addUse(v, Use{PC: pc, OpIdx: opIdx, Base: base, Phi: None})
				opIdx++
			})
			if d := inst.Def(); d >= 0 {
				v := newVal(VInstr, d, b, pc)
				f.DefOf[pc] = v
				stacks[d] = append(stacks[d], v)
				fr.pushed = append(fr.pushed, d)
			}
		}
		// Fill this block's outgoing phi arguments.
		for k, s := range blk.Succs {
			j := edgeArg[b][k]
			for _, pv := range f.Phis[s] {
				f.Vals[pv].Args[j] = top(f.Vals[pv].Slot)
			}
		}
		return fr
	}

	stack = append(stack, enter(0))
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		kids := f.Dom.Children[fr.b]
		if fr.child < len(kids) {
			b := kids[fr.child]
			fr.child++
			stack = append(stack, enter(b))
			continue
		}
		for i := len(fr.pushed) - 1; i >= 0; i-- {
			s := fr.pushed[i]
			stacks[s] = stacks[s][:len(stacks[s])-1]
		}
		stack = stack[:len(stack)-1]
	}
}

// edgeArgIndex computes edgeArg[p][k]: for the k-th successor edge of block
// p, the phi argument index it feeds in the successor (the matching
// occurrence of p in the successor's Preds — duplicate p→s edges pair up by
// occurrence order on both sides). Shared between renaming and destruction.
func edgeArgIndex(cfg *ir.CFG) [][]int {
	edgeArg := make([][]int, cfg.NumBlocks())
	for p := range edgeArg {
		edgeArg[p] = make([]int, len(cfg.Blocks[p].Succs))
	}
	occ := make(map[[2]int]int)
	for s := range cfg.Blocks {
		for j, p := range cfg.Blocks[s].Preds {
			key := [2]int{p, s}
			o := occ[key]
			occ[key]++
			// Find the o-th edge p→s on p's side.
			seen := 0
			for k, t := range cfg.Blocks[p].Succs {
				if t != s {
					continue
				}
				if seen == o {
					edgeArg[p][k] = j
					break
				}
				seen++
			}
		}
	}
	return edgeArg
}

// recordPhiUses appends the phi-argument uses to the per-value use lists
// (operand uses were recorded during renaming).
func (f *Func) recordPhiUses() {
	for b := range f.Phis {
		for _, pv := range f.Phis[b] {
			for j, a := range f.Vals[pv].Args {
				if a == None {
					// Unreachable predecessor edge: never taken, no argument.
					continue
				}
				f.addUse(a, Use{PC: -1, Phi: pv, ArgIdx: j})
			}
		}
	}
}

func (f *Func) addUse(v ValID, u Use) {
	if f.uses == nil {
		f.uses = make([][]Use, 0, len(f.Vals))
	}
	for len(f.uses) < len(f.Vals) {
		f.uses = append(f.uses, nil)
	}
	f.uses[v] = append(f.uses[v], u)
}

// Name renders a value as slot.version for diagnostics, e.g. "v3.2" or
// "x.0" when the method names its locals.
func (f *Func) Name(v ValID) string {
	if v == None {
		return "_"
	}
	val := &f.Vals[v]
	base := f.M.LocalName(val.Slot)
	if val.Kind == VUndef {
		return base + ".undef"
	}
	return fmt.Sprintf("%s.%d", base, val.Version)
}

// bitset is a minimal fixed-size bit vector for liveIn.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) union(o bitset) {
	for w := range b {
		b[w] |= o[w]
	}
}
func (b bitset) andNot(o bitset) {
	for w := range b {
		b[w] &^= o[w]
	}
}
func (b bitset) clearAll() {
	for w := range b {
		b[w] = 0
	}
}
func (b bitset) equal(o bitset) bool {
	for w := range b {
		if b[w] != o[w] {
			return false
		}
	}
	return true
}
