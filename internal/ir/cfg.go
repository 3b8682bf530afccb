package ir

// CFG is the control-flow graph of one method body: the instruction stream
// partitioned into maximal basic blocks with explicit successor/predecessor
// edges. It is the substrate the static analyses (internal/ssa,
// internal/interproc) and the structural validator share: branch structure
// is computed once, here, instead of being re-derived from instruction
// indices at every use site.
type CFG struct {
	Method *Method
	Blocks []Block
	// BlockOf maps each pc to the index of its containing block.
	BlockOf []int
	// RPO lists the blocks reachable from the entry in reverse postorder
	// (every block appears before its successors, loops aside). Blocks not
	// listed are unreachable from the entry.
	RPO []int
	// rpoIndex[b] is the position of block b in RPO, or -1 if unreachable.
	rpoIndex []int
}

// Block is one basic block: the half-open instruction range [Start, End).
// A block is maximal: it begins at a leader (entry, branch target, or the
// instruction after a branch/return) and ends at the next terminator or
// leader.
type Block struct {
	ID         int
	Start, End int
	Succs      []int
	Preds      []int
	// FallsOff marks a block whose control continues past the end of the
	// method body: its last instruction neither returns nor jumps, and no
	// instruction follows. Such a block gets no successors; the validator
	// rejects it when reachable.
	FallsOff bool
}

// Last returns the pc of the block's last instruction.
func (b *Block) Last() int { return b.End - 1 }

// NewCFG partitions m's body into basic blocks and links them. The body may
// be arbitrary (even invalid) as long as branch targets are in range; the
// validator checks target ranges before building the CFG.
func NewCFG(m *Method) *CFG {
	n := len(m.Code)
	c := &CFG{Method: m, BlockOf: make([]int, n)}
	if n == 0 {
		return c
	}

	// Mark leaders.
	leader := make([]bool, n)
	leader[0] = true
	for pc := range m.Code {
		in := &m.Code[pc]
		switch in.Op {
		case OpGoto:
			leader[in.Target] = true
			if pc+1 < n {
				leader[pc+1] = true
			}
		case OpIf:
			leader[in.Target] = true
			if pc+1 < n {
				leader[pc+1] = true
			}
		case OpReturn:
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}

	// Carve blocks.
	for pc := 0; pc < n; {
		start := pc
		pc++
		for pc < n && !leader[pc] {
			pc++
		}
		id := len(c.Blocks)
		c.Blocks = append(c.Blocks, Block{ID: id, Start: start, End: pc})
		for i := start; i < pc; i++ {
			c.BlockOf[i] = id
		}
	}

	// Link successors.
	for i := range c.Blocks {
		b := &c.Blocks[i]
		last := &m.Code[b.Last()]
		switch last.Op {
		case OpReturn:
			// terminal
		case OpGoto:
			b.Succs = append(b.Succs, c.BlockOf[last.Target])
		case OpIf:
			b.Succs = append(b.Succs, c.BlockOf[last.Target])
			if b.End < n {
				b.Succs = append(b.Succs, c.BlockOf[b.End])
			} else {
				b.FallsOff = true
			}
		default:
			if b.End < n {
				b.Succs = append(b.Succs, c.BlockOf[b.End])
			} else {
				b.FallsOff = true
			}
		}
	}
	for i := range c.Blocks {
		for _, s := range c.Blocks[i].Succs {
			c.Blocks[s].Preds = append(c.Blocks[s].Preds, i)
		}
	}

	c.computeRPO()
	return c
}

// computeRPO runs an iterative DFS from the entry block and records the
// reverse postorder of the reachable subgraph.
func (c *CFG) computeRPO() {
	nb := len(c.Blocks)
	c.rpoIndex = make([]int, nb)
	for i := range c.rpoIndex {
		c.rpoIndex[i] = -1
	}
	if nb == 0 {
		return
	}
	state := make([]uint8, nb) // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		b, i int
	}
	var post []int
	stack := []frame{{b: 0}}
	state[0] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := c.Blocks[f.b].Succs
		if f.i < len(succs) {
			s := succs[f.i]
			f.i++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, frame{b: s})
			}
			continue
		}
		state[f.b] = 2
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	c.RPO = make([]int, len(post))
	for i, b := range post {
		pos := len(post) - 1 - i
		c.RPO[pos] = b
		c.rpoIndex[b] = pos
	}
}

// Reachable reports whether block b is reachable from the entry.
func (c *CFG) Reachable(b int) bool { return c.rpoIndex[b] >= 0 }

// RPOIndex returns the position of block b in the reverse postorder, or -1
// if b is unreachable.
func (c *CFG) RPOIndex(b int) int { return c.rpoIndex[b] }

// NumBlocks returns the number of basic blocks.
func (c *CFG) NumBlocks() int { return len(c.Blocks) }
