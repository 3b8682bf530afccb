package oracle

import (
	"sort"

	"lowutil/internal/ir"
)

// ConsumedRAB is the finite "large RAB" a field whose values reach a
// consumer contributes to a structure's n-RAB.
const ConsumedRAB = 1e7

func (g *Gcost) instr(n Node) *ir.Instr { return g.Prog.Instrs[n.Instr] }

// Uses returns the def→use edges, the reverse of Deps (computed once: the
// metrics read a finished graph).
func (g *Gcost) Uses() map[Node]Set {
	if g.uses == nil {
		g.uses = map[Node]Set{}
		for n, deps := range g.Deps {
			for d := range deps {
				Add(g.uses, d, n)
			}
		}
	}
	return g.uses
}

// walk visits every node reachable from seed over edges once; the walk
// does not continue past a visited node for which stop holds.
func walk(seed Node, edges map[Node]Set, visit func(Node), stop func(Node) bool) {
	seen, work := Set{seed: true}, []Node{seed}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for m := range edges[n] {
			if !seen[m] {
				seen[m] = true
				visit(m)
				if !stop(m) {
					work = append(work, m)
				}
			}
		}
	}
}

// HRAC is Definition 5: the frequency of n plus that of every node reaching
// it backward without crossing a heap read (readers end the walk uncounted).
func (g *Gcost) HRAC(n Node) int64 {
	sum := g.Freq[n]
	reads := func(m Node) bool { return g.instr(m).ReadsHeap() }
	walk(n, g.Deps, func(m Node) {
		if !reads(m) {
			sum += g.Freq[m]
		}
	}, reads)
	return sum
}

// HRAB is Definition 6, the forward dual over uses: heap writers end the
// walk uncounted, consumers end it counted and mark n consumed.
func (g *Gcost) HRAB(n Node) (sum int64, consumed bool) {
	sum = g.Freq[n]
	walk(n, g.Uses(), func(m Node) {
		if in := g.instr(m); in.IsConsumer() || !in.WritesHeap() {
			sum += g.Freq[m]
			consumed = consumed || in.IsConsumer()
		}
	}, func(m Node) bool { return g.instr(m).IsConsumer() || g.instr(m).WritesHeap() })
	return sum, consumed
}

// RAC is the mean HRAC of the location's stores (0 if never stored).
func (g *Gcost) RAC(loc Loc) float64 {
	var sum int64
	for s := range g.Stores[loc] {
		sum += g.HRAC(s)
	}
	return mean(sum, len(g.Stores[loc]))
}

func mean(sum int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// RAB is the mean HRAB of the location's loads (0 if never loaded), or
// consumed when some load's value reaches a consumer.
func (g *Gcost) RAB(loc Loc) (rab float64, consumed bool) {
	var sum int64
	for l := range g.Loads[loc] {
		s, c := g.HRAB(l)
		sum, consumed = sum+s, consumed || c
	}
	if consumed {
		return 0, true
	}
	return mean(sum, len(g.Loads[loc])), false
}

// NRAC is Definition 7's n-RAC of the structure allocated at root: the sum
// of RAC over every accessed field of every object fewer than height
// reference hops from root, added in ascending order.
func (g *Gcost) NRAC(root Node, height int) float64 {
	sum, _ := g.aggregate(root, height, func(loc Loc) (float64, bool) { return g.RAC(loc), false })
	return sum
}

// NRAB is the n-RAB dual of NRAC; consumed fields count ConsumedRAB and set
// consumed.
func (g *Gcost) NRAB(root Node, height int) (float64, bool) {
	return g.aggregate(root, height, g.RAB)
}

func (g *Gcost) aggregate(root Node, height int, metric func(Loc) (float64, bool)) (float64, bool) {
	depth := map[Node]int{root: 0}
	for d, level := 1, []Node{root}; d <= height; d++ { // breadth-first: each object at its distance
		var next []Node
		for _, o := range level {
			for loc, children := range g.Children {
				for c := range children {
					if _, seen := depth[c]; !seen && loc.Alloc == o {
						depth[c] = d
						next = append(next, c)
					}
				}
			}
		}
		level = next
	}
	var vals []float64
	consumed := false
	for i, locs := range []map[Loc]Set{g.Stores, g.Loads} {
		for loc := range locs {
			if d, ok := depth[loc.Alloc]; !ok || d >= height || i == 1 && g.Stores[loc] != nil {
				continue // outside the tree, or a stored field already counted
			}
			v, c := metric(loc)
			if c {
				v, consumed = ConsumedRAB, true
			}
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total, consumed
}

// Deadness is the §4.1 ultimately-dead value measurement: D* holds the
// nodes whose values reach no consumer, P* those whose values reach a
// predicate, no native, and nothing unable to reach a consumer. IPD and IPP
// are their frequency mass in percent of all instances, NLD the share of
// nodes in D*.
type Deadness struct {
	Dead, Pred    Set
	IPD, IPP, NLD float64
}

// Deadness classifies every node by the consumers its values can reach.
// Values flow along def→use edges until they arrive at a consumer; a
// consumer's own out-edges (a native's result, or the profiler's control
// dependences under TrackControl) carry flow only back into a cycle
// through it, whose members share its fate. total is the executed instruction count (0 means the
// non-consumer frequency mass).
func (g *Gcost) Deadness(total int64) *Deadness {
	uses := g.Uses()
	reach := func(n Node, edges map[Node]Set) Set {
		r := Set{n: true}
		walk(n, edges, func(m Node) { r[m] = true }, func(Node) bool { return false })
		return r
	}
	flow := map[Node]Set{}
	for n, ts := range uses {
		for t := range ts {
			if !g.instr(n).IsConsumer() || reach(t, uses)[n] {
				Add(flow, n, t)
			}
		}
	}
	alive := Set{} // nodes whose values can reach a consumer
	for n := range g.Freq {
		for m := range reach(n, flow) {
			alive[n] = alive[n] || g.instr(m).IsConsumer()
		}
	}
	res := &Deadness{Dead: Set{}, Pred: Set{}}
	var dead, pred, instances int64
	for n, f := range g.Freq {
		if g.instr(n).IsConsumer() {
			continue
		}
		instances += f
		onlyPred := alive[n]
		for m := range reach(n, flow) {
			in := g.instr(m)
			onlyPred = onlyPred && alive[m] && (!in.IsConsumer() || in.IsPredicate())
		}
		switch {
		case !alive[n]:
			res.Dead[n], dead = true, dead+f
		case onlyPred:
			res.Pred[n], pred = true, pred+f
		}
	}
	if total == 0 {
		total = instances
	}
	res.IPD, res.IPP = pct(dead, total), pct(pred, total)
	res.NLD = pct(int64(len(res.Dead)), int64(len(g.Freq)))
	return res
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
