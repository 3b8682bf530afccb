package interproc

import (
	"context"
	"fmt"
	"strings"

	"lowutil/internal/ir"
)

// Analysis bundles the whole interprocedural pipeline: call graph,
// points-to, summaries, and the static Gcost over-approximation.
type Analysis struct {
	Prog  *ir.Program
	Cfg   Config
	CG    *CallGraph
	PT    *PointsTo
	Sum   *Summaries
	Slice *StaticGraph

	// Freq estimates each instruction's execution frequency (indexed by
	// Instr.ID) from the loop-nest forest with SCCP trip-count bounds: 0 for
	// statically proven-dead code, otherwise the product of enclosing loops'
	// trip counts (ssa.DefaultTrip per unbounded loop). Feeds
	// Slice.BoundsWeighted.
	Freq []float64
}

// Analyze runs the full pipeline over prog under cfg.
func Analyze(prog *ir.Program, cfg Config) *Analysis {
	a, err := AnalyzeContext(context.Background(), prog, cfg)
	if err != nil {
		// Unreachable: the background context never cancels and the
		// pipeline has no other failure mode.
		panic(err)
	}
	return a
}

// AnalyzeContext runs the full pipeline over prog under cfg, polling ctx
// between phases and inside every fixpoint loop. When ctx is done the
// partially built state is discarded and the context error returned, so
// long-running whole-program analyses honor per-request deadlines.
func AnalyzeContext(ctx context.Context, prog *ir.Program, cfg Config) (*Analysis, error) {
	cg := NewCallGraph(prog, cfg.Mode)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pt, err := newPointsTo(ctx, prog, cg, cfg)
	if err != nil {
		return nil, err
	}
	flows := make(map[int]*Flow, len(cg.Methods()))
	for _, m := range cg.Methods() {
		flows[m.ID] = NewFlow(m)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sum, err := newSummaries(ctx, cg, pt, flows)
	if err != nil {
		return nil, err
	}
	slice, err := newStaticGraph(ctx, cg, pt, flows)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Analysis{
		Prog:  prog,
		Cfg:   cfg,
		CG:    cg,
		PT:    pt,
		Sum:   sum,
		Slice: slice,
		Freq:  ipcpWeights(cg),
	}, nil
}

// Bounds returns the frequency-weighted static cost/benefit bounds — the
// default ranking. Use Slice.Bounds for the unweighted PR 3 bounds.
func (a *Analysis) Bounds() []LocBound { return a.Slice.BoundsWeighted(a.Freq) }

// UnreadAllocSites returns, per allocation-site instruction ID, whether
// points-to proves the objects allocated there are never read: no reachable
// heap read uses them as a base, and no reachable predicate, instanceof, or
// native consumes the reference itself. Writes into the object
// (construction) do not count as uses, matching the dynamic zero-benefit
// criterion.
func (a *Analysis) UnreadAllocSites() map[int]bool {
	used := make(map[ObjID]bool)
	mark := func(m *ir.Method, slot int) {
		for _, o := range a.PT.VarPT(m, slot) {
			used[o] = true
		}
	}
	for _, m := range a.CG.Methods() {
		for pc := range m.Code {
			in := &m.Code[pc]
			switch in.Op {
			case ir.OpLoadField, ir.OpALoad, ir.OpArrayLen:
				mark(m, in.A)
			case ir.OpIf:
				mark(m, in.A)
				mark(m, in.B)
			case ir.OpInstanceOf:
				mark(m, in.A)
			case ir.OpNative:
				for _, arg := range in.Args {
					mark(m, arg)
				}
			}
		}
	}
	unread := make(map[int]bool)
	objsBySite := make(map[int][]ObjID)
	for id := range a.PT.Objects {
		site := a.PT.Objects[id].Site
		objsBySite[site.ID] = append(objsBySite[site.ID], ObjID(id))
	}
	for siteID, objs := range objsBySite {
		dead := true
		for _, o := range objs {
			if used[o] {
				dead = false
				break
			}
		}
		unread[siteID] = dead
	}
	return unread
}

// LocName renders an abstract location for reports: the qualified static
// field, or the allocation site (with its context qualifier) plus field.
func (a *Analysis) LocName(l Loc) string {
	if l.Static {
		return a.Prog.Statics[l.Field].QualifiedName()
	}
	o := a.PT.Objects[l.Obj]
	name := fmt.Sprintf("site#%d(%s@%s:%d)", o.Site.AllocSite, allocTypeName(o.Site),
		o.Site.Method.QualifiedName(), o.Site.PC)
	if o.Ctx != NoCtx {
		name += fmt.Sprintf("/recv#%d", o.Ctx)
	}
	if l.Field == ElemField {
		return name + ".[]"
	}
	return name + "." + a.Prog.FieldByID(l.Field).Name
}

func allocTypeName(site *ir.Instr) string {
	if site.Op == ir.OpNew {
		return site.Class.Name
	}
	return site.Elem.String() + "[]"
}

// Report renders the deterministic slice report: pipeline statistics and the
// top candidate locations ranked by static cost/benefit bound.
func (a *Analysis) Report(top int) string {
	var b strings.Builder
	objctx := "off"
	if a.Cfg.ObjCtx {
		objctx = "on"
	}
	fmt.Fprintf(&b, "static slice (mode=%s, objctx=%s)\n", a.CG.Mode, objctx)
	fmt.Fprintf(&b, "  call graph: %d/%d methods reachable, %d edges, %d polymorphic sites, max fanout %d\n",
		a.CG.NumMethods(), countMethods(a.Prog), a.CG.NumEdges(), a.CG.VirtualSites(), a.CG.MaxFanout())
	fmt.Fprintf(&b, "  points-to: %d objects, %d locations, avg set size %.2f\n",
		a.PT.NumObjects(), a.PT.NumLocs(), a.PT.AvgPTSize())
	fmt.Fprintf(&b, "  static Gcost: %d dep edges, %d ref edges, %d child edges\n",
		a.Slice.NumDeps(), a.Slice.NumRefs(), a.Slice.NumChildren())

	bounds := a.Bounds()
	writeOnly := 0
	for i := range bounds {
		if bounds[i].WriteOnly() {
			writeOnly++
		}
	}
	fmt.Fprintf(&b, "  %d of %d stored locations are statically write-only\n", writeOnly, len(bounds))
	if top > len(bounds) {
		top = len(bounds)
	}
	fmt.Fprintf(&b, "  top %d candidates by frequency-weighted static cost/benefit bound:\n", top)
	for i := 0; i < top; i++ {
		lb := &bounds[i]
		tag := ""
		switch {
		case lb.WriteOnly():
			tag = " write-only"
		case lb.Consumed:
			tag = " consumed"
		}
		fmt.Fprintf(&b, "  %3d. %-52s cost<=%-5d benefit<=%-5d wcost=%-9.4g wbenefit=%-9.4g stores=%d loads=%d%s\n",
			i+1, a.LocName(lb.Key), lb.CostBound, lb.BenefitBound, lb.WCost, lb.WBenefit, lb.Stores, lb.Loads, tag)
	}
	return b.String()
}
