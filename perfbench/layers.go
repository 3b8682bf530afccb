package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"lowutil"
	"lowutil/internal/costben"
	"lowutil/internal/deadness"
	"lowutil/internal/depgraph"
	"lowutil/internal/escape"
	"lowutil/internal/interp"
	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/profiler"
	"lowutil/internal/ssa"
	"lowutil/internal/staticanalysis"
)

// The layer pass. For every program it calls each layer's public functions
// in the facade's order, inside spans, with the facade's options (s=16,
// n=4, TrackCR): mjc.Compile; interp.Run under the profiler; Freeze; the
// cost/benefit analysis, deadness and the static cross-check behind
// Profile.Report. Then, for the interp and profiler ratios, interp.Run
// untraced, under NopTracer and under a profiler without TrackCR; then the
// interproc and escape analyses behind StaticAudit, the SSA construction
// vet performs per method, and the vet suite. It then
// renders the report itself and requires the counts and digests to equal
// the facade's for the same program, so the per-layer numbers describe the
// path users run.

// passTotals accumulates one pass over the population.
type passTotals struct {
	programs int
	ms       map[string]float64 // per span name, summed durations
	steps    int64
	counts   map[string]float64 // integer counts, so exact in any order
	avgCR    []float64          // per program, in population order
	approxKB int64
	mallocs  uint64
	alloc    uint64
	facadeMS float64 // the same programs through Compile, ProfileContext, Report
	mirrorMS float64 // the spans that mirror that facade path
}

func (p *passTotals) add(name string, d time.Duration) float64 {
	ms := float64(d.Nanoseconds()) / 1e6
	p.ms[name] += ms
	return ms
}

// layerPass runs the layer pipeline over refs in the order drawn for pass.
func layerPass(ctx context.Context, tr *tracer, refs []*ref, seed uint64, pass int) (*passTotals, error) {
	t := &passTotals{ms: map[string]float64{}, counts: map[string]float64{}, avgCR: make([]float64, len(refs))}
	for _, i := range order(seed, pass, len(refs)) {
		// The untraced facade path (Compile, ProfileContext, Report) over
		// the same program, for the tracing overhead; it runs before the
		// layers on even passes and after them on odd ones, so neither
		// side always finds the caches warm.
		facade := func() error {
			_, e, err := profileRequest(ctx, refs[i])
			t.facadeMS += e.wall // spans are on the wall clock too
			return err
		}
		var err error
		if pass%2 == 0 {
			err = facade()
		}
		if err == nil {
			req := tr.begin("request", 0)
			err = layerProgram(ctx, tr, req, refs[i], i, t)
			tr.end(req)
		}
		if err == nil && pass%2 == 1 {
			err = facade()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", refs[i].Name, err)
		}
		t.programs++
	}
	return t, nil
}

// runVM runs prog under tracer (nil for none) and checks the step count.
func runVM(ctx context.Context, prog *ir.Program, tracer interp.Tracer, want int64) error {
	m := interp.New(prog)
	m.Ctx = ctx
	m.Tracer = tracer
	if err := m.Run(); err != nil {
		return err
	}
	if m.Steps != want {
		return fmt.Errorf("%d steps, want %d", m.Steps, want)
	}
	return nil
}

// layerProgram runs the layer pipeline over one program under request
// span req; idx is the program's place in the population.
func layerProgram(ctx context.Context, tr *tracer, req int32, r *ref, idx int, t *passTotals) error {
	timed := func(name string, parent int32, f func() error) (float64, error) {
		s := tr.begin(name, parent)
		err := f()
		return t.add(name, tr.end(s)), err
	}

	var prog *ir.Program
	compileMS, err := timed("mjc", req, func() (err error) { prog, err = mjc.Compile(r.Src); return err })
	if err != nil {
		return err
	}
	t.counts["mjc.ir_instrs"] += float64(prog.NumInstrs())

	// The facade's profiled run.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof *profiler.Profiler
	profMS, err := timed("profiler", req, func() error {
		prof = profiler.New(prog, profiler.Options{Slots: lowutil.DefaultSlots, TrackCR: true})
		return runVM(ctx, prog, prof, r.Steps)
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	t.steps += r.Steps
	t.mallocs += m1.Mallocs - m0.Mallocs
	t.alloc += m1.TotalAlloc - m0.TotalAlloc

	freezeMS, _ := timed("depgraph.freeze", req, func() error { prof.G.Freeze(); return nil })
	var an *costben.Analysis
	analysisMS, _ := timed("costben", req, func() error { an = costben.NewAnalysisWith(prof.G, costben.Config{}); return nil })

	// Profile.Report: graph stats, deadness, ranking, cross-check, render.
	rs := tr.begin("lowutil.report", req)
	gs := lowutil.GraphStats{
		Nodes:    prof.G.NumNodes(),
		DepEdges: prof.G.NumDepEdges(),
		RefEdges: prof.G.NumRefEdges(),
		Bytes:    prof.G.ApproxBytes(),
		AvgCR:    prof.CR().AverageCR(),
	}
	var dead *deadness.Result
	timed("deadness", rs, func() error { dead = deadness.Analyze(prof.G, r.Steps); return nil })
	var ranked []*costben.SiteReport
	timed("costben", rs, func() error { ranked = an.RankBySite(lowutil.DefaultTreeHeight); return nil })
	var checks []lowutil.FieldCrossCheck
	timed("staticanalysis.crosscheck", rs, func() error { checks = crossCheck(prog, prof.G, an); return nil })
	text := renderReport(gs, r.Steps, dead, ranked, checks)
	reportMS := t.add("lowutil.report", tr.end(rs))

	if gs != r.Graph {
		return fmt.Errorf("traced Gcost %+v, facade %+v", gs, r.Graph)
	}
	if err := checkDigest("traced report", digest(text), r.Report[0]); err != nil {
		return err
	}
	t.counts["depgraph.nodes"] += float64(gs.Nodes)
	t.counts["depgraph.dep_edges"] += float64(gs.DepEdges)
	t.counts["depgraph.ref_edges"] += float64(gs.RefEdges)
	t.approxKB += gs.Bytes / 1024
	t.avgCR[idx] = gs.AvgCR
	t.counts["costben.sites"] += float64(len(ranked))
	t.counts["lowutil.report_bytes"] += float64(len(text))
	t.mirrorMS += compileMS + profMS + freezeMS + analysisMS + reportMS

	// interp alone, then with the do-nothing tracer (the dispatch tax),
	// then with the profiler without TrackCR (TrackCR's share of the
	// trace). The program's dispatch tables are warm by now; building them
	// costs the first run about 10µs.
	if _, err := timed("interp", req, func() error { return runVM(ctx, prog, nil, r.Steps) }); err != nil {
		return err
	}
	if _, err := timed("interp.nop", req, func() error { return runVM(ctx, prog, interp.NopTracer{}, r.Steps) }); err != nil {
		return err
	}
	if _, err := timed("profiler.nocr", req, func() error {
		return runVM(ctx, prog, profiler.New(prog, profiler.Options{Slots: lowutil.DefaultSlots}), r.Steps)
	}); err != nil {
		return err
	}

	// StaticAudit: interproc, escape, render.
	as := tr.begin("lowutil.audit", req)
	var ipa *interproc.Analysis
	cfg := interproc.Config{Mode: interproc.RTA}
	if _, err := timed("interproc", as, func() (err error) { ipa, err = interproc.AnalyzeContext(ctx, prog, cfg); return err }); err != nil {
		return err
	}
	var esc *escape.Result
	if _, err := timed("escape", as, func() (err error) { esc, err = escape.AnalyzeContext(ctx, ipa); return err }); err != nil {
		return err
	}
	audit := esc.Report(lowutil.DefaultTop)
	t.add("lowutil.audit", tr.end(as))
	if err := checkDigest("traced audit", digest(audit), r.Audit); err != nil {
		return err
	}
	t.counts["interproc.pt_objects"] += float64(ipa.PT.NumObjects())
	t.counts["escape.sites"] += float64(len(esc.Sites))

	// The SSA form vet builds for every method.
	timed("ssa", req, func() error {
		for _, c := range prog.Classes {
			for _, m := range c.Methods {
				f := ssa.Build(m, nil)
				ssa.RunSCCP(f)
				t.counts["ssa.vals"] += float64(f.NumVals())
			}
		}
		return nil
	})

	// Vet: its own interproc analysis, then the lint suite.
	vs := tr.begin("staticanalysis.vet", req)
	if _, err := timed("interproc", vs, func() (err error) { ipa, err = interproc.AnalyzeContext(ctx, prog, cfg); return err }); err != nil {
		return err
	}
	findings := staticanalysis.VetWith(prog, ipa)
	t.add("staticanalysis.vet", tr.end(vs))
	msgs := make([]string, len(findings))
	for i, f := range findings {
		msgs[i] = f.String()
	}
	if err := checkDigest("traced vet", vetDigest(msgs), r.Vet); err != nil {
		return err
	}
	t.counts["staticanalysis.findings"] += float64(len(findings))
	return nil
}

// renderReport formats a report exactly as lowutil's Profile.Report does,
// from the layers' own results.
func renderReport(gs lowutil.GraphStats, steps int64, dead *deadness.Result, ranked []*costben.SiteReport, checks []lowutil.FieldCrossCheck) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Gcost: %d nodes, %d dep edges, %d ref edges (~%d KB), avg CR %.3f\n",
		gs.Nodes, gs.DepEdges, gs.RefEdges, gs.Bytes/1024, gs.AvgCR)
	fmt.Fprintf(&sb, "instances: %d; IPD %.1f%%  IPP %.1f%%  NLD %.1f%%\n",
		steps, dead.IPD(), dead.IPP(), dead.NLD())
	fmt.Fprintf(&sb, "top low-utility structures (n=%d):\n", lowutil.DefaultTreeHeight)
	k := min(lowutil.DefaultTop, len(ranked))
	for i, r := range ranked[:k] {
		f := lowutil.Finding{
			Site: r.Site.AllocSite, Where: siteWhere(r.Site), Cost: r.NRAC, Benefit: r.NRAB,
			Rate: r.Rate, ReachesConsumer: r.Consumed, Allocs: r.AllocFreq,
		}
		fmt.Fprintf(&sb, "%3d. %s\n", i+1, f)
	}
	if len(checks) > 0 {
		sb.WriteString("static cross-check (zero-benefit fields):\n")
		for _, c := range checks {
			fmt.Fprintf(&sb, "     %s\n", c)
		}
	}
	return sb.String()
}

func siteWhere(site *ir.Instr) string {
	w := fmt.Sprintf("%s:%d", site.Method.QualifiedName(), site.PC)
	if site.Line > 0 {
		w += fmt.Sprintf(" line %d", site.Line)
	}
	if site.Op == ir.OpNew {
		w += " new " + site.Class.Name
	}
	return w
}

// crossCheck lists the fields stored but never loaded during the run,
// with the static write-only verdict, as Profile.StaticCrossCheck does.
func crossCheck(prog *ir.Program, g *depgraph.Graph, an *costben.Analysis) []lowutil.FieldCrossCheck {
	writeOnly := staticanalysis.WriteOnlyFieldIDs(prog)
	type acc struct{ stores, loads int64 }
	perField := map[int]*acc{}
	g.Locs(func(loc depgraph.Loc) {
		if loc.Alloc == nil || loc.Field == depgraph.ElemField {
			return
		}
		rep := an.CacheAnalysis(loc)
		a := perField[loc.Field]
		if a == nil {
			a = &acc{}
			perField[loc.Field] = a
		}
		a.stores += rep.Stores
		a.loads += rep.Loads
	})
	var out []lowutil.FieldCrossCheck
	for id, a := range perField {
		if a.loads > 0 || a.stores == 0 {
			continue
		}
		out = append(out, lowutil.FieldCrossCheck{
			Field:           prog.FieldByID(id).QualifiedName(),
			StaticWriteOnly: writeOnly[id],
			Stores:          a.stores,
			Loads:           a.loads,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Field < out[j].Field })
	return out
}
