package interproc

import (
	"math/bits"

	"lowutil/internal/ir"
)

// Flow is the per-method reaching-definitions relation, the one def-use
// source of the repository: the interprocedural analyses here and the static
// prune (staticanalysis.PruneSet) read it. It is exposed as, for every
// instruction operand, the set of definitions that may have produced the
// value read. Definitions are instruction pcs; each parameter contributes a
// pseudo-definition numbered len(m.Code)+slot.
type Flow struct {
	Method *ir.Method
	CFG    *ir.CFG

	// Operands[pc] lists, in Instr.Uses callback order, the reads performed
	// by the instruction with their reaching definitions; nil for
	// instructions unreachable from the entry.
	Operands [][]Operand
}

// Operand is one read performed by an instruction.
type Operand struct {
	Slot int
	// Base marks a base-pointer read, which thin slicing excludes from value
	// flow.
	Base bool
	// Defs holds the reaching definitions (pcs, or len(code)+slot pseudo-defs
	// for parameters), ascending.
	Defs []int
}

// isParamDef reports whether def index d of m is a parameter pseudo-def.
func isParamDef(m *ir.Method, d int) bool { return d >= len(m.Code) }

// paramOfDef returns the parameter slot of a pseudo-def.
func paramOfDef(m *ir.Method, d int) int { return d - len(m.Code) }

// NewFlow computes reaching definitions for m with a dense bitset
// worklist over the CFG and materializes the per-operand def sets.
func NewFlow(m *ir.Method) *Flow {
	cfg := ir.NewCFG(m)
	n := len(m.Code)
	ndefs := n + m.Params
	words := (ndefs + 63) / 64

	defsOfSlot := make([][]uint64, m.NumLocals)
	for s := range defsOfSlot {
		defsOfSlot[s] = make([]uint64, words)
	}
	set := func(bs []uint64, i int) { bs[i/64] |= 1 << (i % 64) }
	for pc := range m.Code {
		if d := m.Code[pc].Def(); d >= 0 {
			set(defsOfSlot[d], pc)
		}
	}
	for s := 0; s < m.Params && s < m.NumLocals; s++ {
		set(defsOfSlot[s], n+s)
	}

	nb := cfg.NumBlocks()
	in := make([][]uint64, nb)
	out := make([][]uint64, nb)
	for b := 0; b < nb; b++ {
		in[b] = make([]uint64, words)
		out[b] = make([]uint64, words)
	}
	// Forward union fixpoint; the entry block starts with the parameter
	// pseudo-defs.
	tmp := make([]uint64, words)
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.RPO {
			blk := &cfg.Blocks[b]
			cur := in[b]
			for w := range cur {
				cur[w] = 0
			}
			for _, p := range blk.Preds {
				for w := range cur {
					cur[w] |= out[p][w]
				}
			}
			if b == 0 {
				for s := 0; s < m.Params && s < m.NumLocals; s++ {
					set(cur, n+s)
				}
			}
			copy(tmp, cur)
			for pc := blk.Start; pc < blk.End; pc++ {
				if d := m.Code[pc].Def(); d >= 0 {
					for w := range tmp {
						tmp[w] &^= defsOfSlot[d][w]
					}
					set(tmp, pc)
				}
			}
			same := true
			for w := range tmp {
				if out[b][w] != tmp[w] {
					same = false
				}
			}
			if !same {
				copy(out[b], tmp)
				changed = true
			}
		}
	}

	mf := &Flow{Method: m, CFG: cfg, Operands: make([][]Operand, n)}
	cur := make([]uint64, words)
	for _, b := range cfg.RPO {
		blk := &cfg.Blocks[b]
		copy(cur, in[b])
		for pc := blk.Start; pc < blk.End; pc++ {
			inst := &m.Code[pc]
			inst.Uses(func(s int, base bool) {
				op := Operand{Slot: s, Base: base}
				for w := 0; w < words; w++ {
					bitsw := cur[w] & defsOfSlot[s][w]
					for bitsw != 0 {
						i := bitsw & (-bitsw)
						bitsw &^= i
						d := w*64 + bits.TrailingZeros64(i)
						op.Defs = append(op.Defs, d)
					}
				}
				mf.Operands[pc] = append(mf.Operands[pc], op)
			})
			if d := inst.Def(); d >= 0 {
				for w := range cur {
					cur[w] &^= defsOfSlot[d][w]
				}
				set(cur, pc)
			}
		}
	}
	return mf
}
