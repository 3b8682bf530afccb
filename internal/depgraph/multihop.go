package depgraph

// Multi-hop traversals implement the §3.2 design alternative the paper
// discusses ("Single-hop cost/benefit vs multi-hop cost/benefit"): instead
// of stopping at the first heap boundary, costs and benefits may be
// "recomputed by traversing multiple heap-to-heap hops on Gcost backward and
// forward". A hop boundary is a heap-reading node (backward) or a
// heap-writing node (forward); with hops = 1 these functions are the
// paper's single-hop HRAC/HRAB (Definitions 5–6), and with hops = ∞ they
// approach AbstractCost / full forward weight.

// HRACK computes the k-hop relative abstract cost: the frequency sum over
// backward paths from n that cross at most hops-1 heap-reading nodes.
// Heap readers consume one hop budget and are counted once crossed (their
// stack work belongs to the previous hop's production).
func HRACK(n *Node, hops int) int64 {
	if hops < 1 {
		hops = 1
	}
	type item struct {
		n      *Node
		budget int
	}
	sum := n.Freq()
	// best[n] = highest remaining budget n was visited with; a node is
	// re-traversed only with a strictly higher budget, and its frequency is
	// counted exactly once.
	best := map[*Node]int{n: hops}
	counted := map[*Node]bool{n: true}
	stack := []item{{n, hops}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur.n.Deps(func(d *Node) {
			budget := cur.budget
			if d.ReadsHeap() {
				budget--
				if budget < 1 {
					return // out of hops: boundary stays uncounted
				}
			}
			if b, seen := best[d]; seen && b >= budget {
				return
			}
			best[d] = budget
			if !counted[d] {
				counted[d] = true
				sum += d.Freq()
			}
			stack = append(stack, item{d, budget})
		})
	}
	return sum
}

// HRABK is the forward dual of HRACK: the frequency sum over forward paths
// from n crossing at most hops-1 heap-writing nodes, with consumer nodes as
// sinks. The boolean reports consumer reachability within the hop budget.
func HRABK(n *Node, hops int) (int64, bool) {
	if hops < 1 {
		hops = 1
	}
	type item struct {
		n      *Node
		budget int
	}
	sum := n.Freq()
	consumed := false
	best := map[*Node]int{n: hops}
	counted := map[*Node]bool{n: true}
	stack := []item{{n, hops}}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur.n.Uses(func(u *Node) {
			budget := cur.budget
			if u.IsConsumer() {
				if !counted[u] {
					counted[u] = true
					sum += u.Freq()
				}
				consumed = true
				return // sinks
			}
			if u.WritesHeap() {
				budget--
				if budget < 1 {
					return
				}
			}
			if b, seen := best[u]; seen && b >= budget {
				return
			}
			best[u] = budget
			if !counted[u] {
				counted[u] = true
				sum += u.Freq()
			}
			stack = append(stack, item{u, budget})
		})
	}
	return sum, consumed
}
