package ir

// This file hosts the dominator machinery the SSA layer is built on.

// Dominators computes the immediate dominator of every reachable block with
// the Cooper–Harvey–Kennedy iterative algorithm over the reverse postorder.
// idom[entry] == entry; idom[b] == -1 for unreachable blocks.
func Dominators(cfg *CFG) []int {
	nb := cfg.NumBlocks()
	idom := make([]int, nb)
	for i := range idom {
		idom[i] = -1
	}
	if nb == 0 {
		return idom
	}
	idom[0] = 0

	intersect := func(a, b int) int {
		for a != b {
			for cfg.RPOIndex(a) > cfg.RPOIndex(b) {
				a = idom[a]
			}
			for cfg.RPOIndex(b) > cfg.RPOIndex(a) {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range cfg.RPO {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range cfg.Blocks[b].Preds {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// DomTree is the dominator tree of a CFG plus the dominance frontiers — the
// inputs to pruned-SSA phi placement.
type DomTree struct {
	CFG *CFG
	// Idom[b] is the immediate dominator of block b. Idom[entry] == entry;
	// -1 for blocks unreachable from the entry.
	Idom []int
	// Children[b] lists the blocks whose immediate dominator is b (the entry
	// excluded from its own children), in ascending block order.
	Children [][]int
	// Frontier[b] is the dominance frontier of block b — the blocks where
	// b's dominance stops, i.e. the join points needing phis for defs in b —
	// in ascending block order, deduplicated.
	Frontier [][]int
}

// NewDomTree computes the dominator tree and dominance frontiers of cfg.
func NewDomTree(cfg *CFG) *DomTree {
	d := &DomTree{CFG: cfg, Idom: Dominators(cfg)}
	nb := cfg.NumBlocks()
	d.Children = make([][]int, nb)
	for b := 0; b < nb; b++ {
		if b == 0 || d.Idom[b] == -1 {
			continue
		}
		d.Children[d.Idom[b]] = append(d.Children[d.Idom[b]], b)
	}
	// Dominance frontiers (Cooper–Harvey–Kennedy): for every join block,
	// walk each predecessor's idom chain up to the join's idom. The entry's
	// idom is a virtual root above block 0 (-1 here), so the walk for an
	// entry join runs through block 0 itself: a loop back to the entry puts
	// the entry in its own frontier.
	d.Frontier = make([][]int, nb)
	inFrontier := make([]int, nb) // last join added per runner, -1 sentinel
	for i := range inFrontier {
		inFrontier[i] = -1
	}
	for _, b := range cfg.RPO {
		preds := cfg.Blocks[b].Preds
		// The entry is a join point as soon as it has any predecessor: the
		// implicit function-entry edge (parameters, undefs) always joins it.
		if len(preds) < 2 && !(b == 0 && len(preds) >= 1) {
			continue
		}
		stop := d.Idom[b]
		if b == 0 {
			stop = -1
		}
		for _, p := range preds {
			if d.Idom[p] == -1 {
				continue
			}
			for runner := p; runner != stop; runner = d.Idom[runner] {
				if inFrontier[runner] != b {
					inFrontier[runner] = b
					d.Frontier[runner] = append(d.Frontier[runner], b)
				}
				if runner == 0 {
					break
				}
			}
		}
	}
	return d
}

// Dominates reports whether block a dominates block b (reflexively).
func (d *DomTree) Dominates(a, b int) bool {
	if d.Idom[b] == -1 {
		return false
	}
	if a == 0 {
		return true
	}
	for b != 0 {
		if a == b {
			return true
		}
		b = d.Idom[b]
	}
	return a == 0
}
