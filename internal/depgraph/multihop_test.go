package depgraph

import (
	"testing"
	"testing/quick"
)

// randGraph builds a graph from an edge list, marking some nodes as heap
// readers/writers, for property tests.
func randGraph(t testing.TB, n int, edges []uint16, effs []uint8) (*Graph, []*Node) {
	t.Helper()
	prog := mkProg(t, n)
	g := New(prog)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = g.Node(prog.Instrs[i], 0)
		nodes[i].SetFreq(int64(i + 1))
		if i < len(effs) {
			switch effs[i] % 4 {
			case 1:
				nodes[i].Eff = EffLoad
			case 2:
				nodes[i].Eff = EffStore
			}
		}
	}
	for _, e := range edges {
		from := int(e>>8) % n
		to := int(e&0xff) % n
		if from != to {
			g.AddDep(nodes[from], nodes[to])
		}
	}
	return g, nodes
}

// Property: HRACK/HRABK with hops=1 equal the plain single-hop walks of
// Definitions 5 and 6 (hrac/hrab below).
func TestMultiHopDegeneratesToSingleHop(t *testing.T) {
	f := func(edges []uint16, effs []uint8, seed uint8) bool {
		const n = 10
		g, nodes := randGraph(t, n, edges, effs)
		_ = g
		seedN := nodes[int(seed)%n]
		if HRACK(seedN, 1) != hrac(seedN) {
			return false
		}
		s1, c1 := HRABK(seedN, 1)
		s2, c2 := hrab(seedN)
		return s1 == s2 && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: multi-hop costs are monotone non-decreasing in the hop budget.
func TestMultiHopMonotone(t *testing.T) {
	f := func(edges []uint16, effs []uint8, seed uint8) bool {
		const n = 10
		_, nodes := randGraph(t, n, edges, effs)
		seedN := nodes[int(seed)%n]
		prevC := int64(0)
		prevB := int64(0)
		for hops := 1; hops <= 4; hops++ {
			c := HRACK(seedN, hops)
			b, _ := HRABK(seedN, hops)
			if c < prevC || b < prevB {
				return false
			}
			prevC, prevB = c, b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: with enough hops, HRACK reaches the full abstract cost.
func TestMultiHopConvergesToAbstractCost(t *testing.T) {
	f := func(edges []uint16, effs []uint8, seed uint8) bool {
		const n = 8
		_, nodes := randGraph(t, n, edges, effs)
		seedN := nodes[int(seed)%n]
		return HRACK(seedN, n+1) == AbstractCost(seedN)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Hand-checked two-hop chain: store2 ← comp2 ← load2 ← store1 ← comp1 ←
// load1. One hop sees {store2, comp2}; two hops add {load2, store1, comp1};
// three hops add load1.
func TestMultiHopChainExact(t *testing.T) {
	prog := mkProg(t, 6)
	g := New(prog)
	mk := func(i int, eff EffectKind, freq int64) *Node {
		n := g.Node(prog.Instrs[i], 0)
		n.Eff = eff
		n.SetFreq(freq)
		return n
	}
	load1 := mk(0, EffLoad, 1)
	comp1 := mk(1, EffNone, 2)
	store1 := mk(2, EffStore, 4)
	load2 := mk(3, EffLoad, 8)
	comp2 := mk(4, EffNone, 16)
	store2 := mk(5, EffStore, 32)
	g.AddDep(comp1, load1)
	g.AddDep(store1, comp1)
	g.AddDep(load2, store1)
	g.AddDep(comp2, load2)
	g.AddDep(store2, comp2)

	if got := HRACK(store2, 1); got != 32+16 {
		t.Errorf("1-hop = %d, want 48", got)
	}
	if got := HRACK(store2, 2); got != 32+16+8+4+2 {
		t.Errorf("2-hop = %d, want 62", got)
	}
	if got := HRACK(store2, 3); got != 32+16+8+4+2+1 {
		t.Errorf("3-hop = %d, want 63", got)
	}

	// Benefit from load1 forward: 1 hop stops before store1.
	if got, _ := HRABK(load1, 1); got != 1+2 {
		t.Errorf("1-hop benefit = %d, want 3", got)
	}
	if got, _ := HRABK(load1, 2); got != 1+2+4+8+16 {
		t.Errorf("2-hop benefit = %d, want 31", got)
	}
}

// hrac is Definition 5 as a plain walk: the frequency sum over backward
// paths from n containing no heap reader (readers end the walk uncounted;
// n itself always counts).
func hrac(n *Node) int64 {
	sum := n.Freq()
	visited := map[*Node]bool{n: true}
	stack := []*Node{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur.Deps(func(d *Node) {
			if visited[d] {
				return
			}
			visited[d] = true
			if !d.ReadsHeap() {
				sum += d.Freq()
				stack = append(stack, d)
			}
		})
	}
	return sum
}

// hrab is Definition 6 as a plain walk, the forward dual of hrac: heap
// writers end it uncounted, consumers end it counted and set consumed.
func hrab(n *Node) (sum int64, consumed bool) {
	sum = n.Freq()
	visited := map[*Node]bool{n: true}
	stack := []*Node{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cur.Uses(func(u *Node) {
			if visited[u] {
				return
			}
			visited[u] = true
			switch {
			case u.IsConsumer():
				consumed = true
				sum += u.Freq()
			case !u.WritesHeap():
				sum += u.Freq()
				stack = append(stack, u)
			}
		})
	}
	return sum, consumed
}
