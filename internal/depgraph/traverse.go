package depgraph

// This file implements the unrestricted traversals: backward slices and
// the abstract cost of Definition 4 (frequency-weighted backward
// reachability). The heap-hop-restricted walks behind HRAC/HRAB
// (Definitions 5–6) are HRACK/HRABK in multihop.go; one hop is the paper's
// single-hop metric. All traversals are iterative; graphs can be deep.

// BackwardSlice returns the set of nodes that can reach seed through dep
// edges, including seed itself — the dynamic thin slice of seed.
func BackwardSlice(seed *Node) map[*Node]struct{} {
	visited := map[*Node]struct{}{seed: {}}
	stack := []*Node{seed}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n.g.depSets[n.id].each(n.g.all, func(d *Node) {
			if _, ok := visited[d]; !ok {
				visited[d] = struct{}{}
				stack = append(stack, d)
			}
		})
	}
	return visited
}

// AbstractCost computes Definition 4: the sum of frequencies of all nodes
// that can reach n (plus n itself).
func AbstractCost(n *Node) int64 {
	var sum int64
	for m := range BackwardSlice(n) {
		sum += m.Freq()
	}
	return sum
}
