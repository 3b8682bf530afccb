package fuzzgen

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"lowutil"
	"lowutil/internal/costben"
	"lowutil/internal/depgraph"
	"lowutil/internal/escape"
	"lowutil/internal/interp"
	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/oracle"
	"lowutil/internal/oracle/oraclecheck"
	"lowutil/internal/profiler"
	"lowutil/internal/staticanalysis"
)

// maxFuzzSteps bounds every interpreter run in the harness. Generated
// programs peak well under a million steps (see gen.go's termination
// guarantees), so hitting this budget is itself a generator-contract
// violation rather than a long-running program.
const maxFuzzSteps = 50_000_000

// Violation is one failed invariant on one generated program.
type Violation struct {
	Invariant string
	Detail    string
}

// Invariant is one named differential check. Checks share a caseRun so
// expensive artifacts (compiled program, dynamic Gcost, interprocedural
// analyses) are computed once per generated program.
type Invariant struct {
	Name  string
	check func(c *caseRun) error
}

// Invariants returns the full differential suite in its stable run order.
// Each entry mirrors an invariant the fixed-workload test suites prove:
//
//	compiles               the generator's contract: output is well-formed MJ
//	interp-parity          VM vs the oracle's own IR evaluation: error kind/
//	                       output/steps/allocs/native
//	profile-parity         profiler (fast path and facade configuration) vs
//	                       the Gcost the oracle builds as it evaluates:
//	                       Gcost, HRAC/HRAB, RAC/RAB, n-RAC/n-RAB, IPD/IPP/NLD
//	slice-containment-cha  dynamic Gcost ⊆ static slice under CHA
//	slice-containment-rta  dynamic Gcost ⊆ static slice under RTA+ObjCtx
//	prune-ranking          static prune preserves the per-site ranking
//	vet-agreement          SSA vs dense vet subset/equality relations
//	escape-soundness       dynamic escapes ⊆ static non-NoEscape (CHA and RTA)
//	report-stability       profile/slice/audit reports are byte-stable across
//	                       repeated emission
func Invariants() []Invariant {
	base := []Invariant{
		{"compiles", checkCompiles},
		{"interp-parity", checkInterpParity},
		{"profile-parity", checkProfileParity},
		{"slice-containment-cha", checkContainmentCHA},
		{"slice-containment-rta", checkContainmentRTA},
		{"prune-ranking", checkPruneRanking},
		{"vet-agreement", checkVetAgreement},
		{"escape-soundness", checkEscapeSoundness},
		{"report-stability", checkReportStability},
	}
	return append(base, extraInvariants...)
}

// extraInvariants is a test-only hook: the broken-invariant regression test
// appends a deliberately failing check here to prove the driver catches it
// and shrinks the reproducer. Always empty in production use.
var extraInvariants []Invariant

// invariantNames returns the suite's names in run order.
func invariantNames() []string {
	var names []string
	for _, inv := range Invariants() {
		names = append(names, inv.Name)
	}
	return names
}

// caseRun memoizes the per-program artifacts the invariants share.
type caseRun struct {
	src string

	compiled   bool
	prog       *ir.Program
	compileErr error

	fac *lowutil.Program

	dyn    *depgraph.Graph
	dynErr error

	want *oracle.Result

	anCHA    *interproc.Analysis
	anRTAObj *interproc.Analysis
	anRTA    *interproc.Analysis
}

func newCaseRun(src string) *caseRun { return &caseRun{src: src} }

func (c *caseRun) irProg() (*ir.Program, error) {
	if !c.compiled {
		c.compiled = true
		c.prog, c.compileErr = mjc.Compile(c.src)
	}
	return c.prog, c.compileErr
}

func (c *caseRun) facade() (*lowutil.Program, error) {
	if c.fac == nil {
		p, err := lowutil.Compile(c.src)
		if err != nil {
			return nil, err
		}
		c.fac = p
	}
	return c.fac, nil
}

// dynGraph profiles the program once (thin slicing, 16 context slots) and
// caches the dynamic Gcost for the containment invariants.
func (c *caseRun) dynGraph() (*depgraph.Graph, error) {
	if c.dyn == nil && c.dynErr == nil {
		prog, err := c.irProg()
		if err != nil {
			return nil, err
		}
		p := profiler.New(prog, profiler.Options{Slots: 16})
		m := interp.New(prog)
		m.Tracer = p
		m.MaxSteps = maxFuzzSteps
		if err := m.Run(); err != nil {
			c.dynErr = fmt.Errorf("profiled run failed: %w", err)
		} else {
			c.dyn = p.G
		}
	}
	return c.dyn, c.dynErr
}

// oracle evaluates the program once on the oracle (16 context slots) and
// caches the result for the parity invariants.
func (c *caseRun) oracle() (*oracle.Result, error) {
	prog, err := c.irProg()
	if err != nil {
		return nil, errSkip
	}
	if c.want == nil {
		c.want = oracle.Run(prog, 16, maxFuzzSteps)
	}
	return c.want, nil
}

func (c *caseRun) analysis(which *interproc.Analysis, cfg interproc.Config) (*interproc.Analysis, error) {
	if which != nil {
		return which, nil
	}
	prog, err := c.irProg()
	if err != nil {
		return nil, err
	}
	return interproc.Analyze(prog, cfg), nil
}

func (c *caseRun) cha() (*interproc.Analysis, error) {
	an, err := c.analysis(c.anCHA, interproc.Config{Mode: interproc.CHA})
	c.anCHA = an
	return an, err
}

func (c *caseRun) rtaObj() (*interproc.Analysis, error) {
	an, err := c.analysis(c.anRTAObj, interproc.Config{Mode: interproc.RTA, ObjCtx: true})
	c.anRTAObj = an
	return an, err
}

// rta is the plain RTA analysis (no object context) — the configuration the
// facade's -prune path and the vet engines use.
func (c *caseRun) rta() (*interproc.Analysis, error) {
	an, err := c.analysis(c.anRTA, interproc.Config{Mode: interproc.RTA})
	c.anRTA = an
	return an, err
}

// errSkip marks an invariant that cannot be evaluated on this source (it
// does not compile). Only the "compiles" invariant treats that as a failure;
// the shrinker treats errSkip candidates as not reproducing.
var errSkip = fmt.Errorf("not applicable: source does not compile")

func checkCompiles(c *caseRun) error {
	if _, err := c.irProg(); err != nil {
		return fmt.Errorf("generated program does not compile: %v", err)
	}
	return nil
}

func checkInterpParity(c *caseRun) error {
	want, err := c.oracle()
	if err != nil {
		return err
	}
	m := interp.New(c.prog)
	m.MaxSteps = maxFuzzSteps
	return oraclecheck.Machine(want, m, m.Run())
}

// profileBundle captures every engine-sensitive profile output, mirroring
// the CLI surface: ranked report, serialized profile, multi-hop slice, and
// graph/deadness stats.
type profileBundle struct {
	report, saved, multihop, stats string
}

func (c *caseRun) profile() (*profileBundle, error) {
	fac, err := c.facade()
	if err != nil {
		return nil, err
	}
	profile, err := fac.ProfileContext(context.Background())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := profile.Save(&buf); err != nil {
		return nil, err
	}
	var mh strings.Builder
	for i, f := range profile.TopStructuresMultiHop(10, 2) {
		fmt.Fprintf(&mh, "%3d. %s\n", i+1, f)
	}
	return &profileBundle{
		report:   profile.Report(lowutil.DefaultTop),
		saved:    buf.String(),
		multihop: mh.String(),
		stats:    fmt.Sprintf("%+v %+v steps=%d", profile.GraphStats(), profile.Deadness(), profile.Steps()),
	}, nil
}

// checkProfileParity compares the profiler against the oracle twice: on
// its inlined fast path (the cached dynamic Gcost) and in the facade's
// configuration, whose context-conflict tracking forces the slow path.
func checkProfileParity(c *caseRun) error {
	want, err := c.oracle()
	if err != nil {
		return err
	}
	if want.Err != "" {
		return fmt.Errorf("oracle run failed: %s", want.Err)
	}
	prog, steps := c.prog, want.Steps
	fast, err := c.dynGraph()
	if err != nil {
		return err
	}
	p := profiler.New(prog, profiler.Options{Slots: 16, TrackCR: true})
	m := interp.New(prog)
	m.Tracer = p
	m.MaxSteps = maxFuzzSteps
	if err := m.Run(); err != nil {
		return fmt.Errorf("profiled run failed: %v", err)
	}
	if m.Steps != steps {
		return fmt.Errorf("steps: oracle %d, profiled %d", steps, m.Steps)
	}
	if err := oraclecheck.All(want.G, fast, steps, costben.DefaultTreeHeight); err != nil {
		return fmt.Errorf("fast path: %v", err)
	}
	if err := oraclecheck.All(want.G, p.G, steps, costben.DefaultTreeHeight); err != nil {
		return fmt.Errorf("slow path: %v", err)
	}
	return nil
}

// containment checks dynamic ⊆ static: every dependence, reference and
// ownership-child edge of the dynamic Gcost must appear in the static slice.
func containment(g *depgraph.Graph, an *interproc.Analysis) error {
	missing := 0
	var first string
	note := func(format string, args ...any) {
		if missing == 0 {
			first = fmt.Sprintf(format, args...)
		}
		missing++
	}
	g.Nodes(func(n *depgraph.Node) {
		n.Deps(func(d *depgraph.Node) {
			if !an.Slice.HasDep(n.In.ID, d.In.ID) {
				note("dynamic dep i%d -> i%d (%s -> %s) not in static slice",
					n.In.ID, d.In.ID, n.In, d.In)
			}
		})
		n.RefEdges(func(al *depgraph.Node) {
			if !an.Slice.HasRef(n.In.ID, al.In.ID) {
				note("dynamic ref i%d -> i%d not in static slice", n.In.ID, al.In.ID)
			}
		})
	})
	owners := []*depgraph.Node{nil}
	g.Nodes(func(n *depgraph.Node) {
		if n.Eff == depgraph.EffAlloc {
			owners = append(owners, n)
		}
	})
	for _, o := range owners {
		ownerID := -1
		if o != nil {
			ownerID = o.In.ID
		}
		g.Children(o, func(field int, child *depgraph.Node) {
			if !an.Slice.HasChild(ownerID, field, child.In.ID) {
				note("dynamic child (%d,%d) -> i%d not in static slice", ownerID, field, child.In.ID)
			}
		})
	}
	if missing > 0 {
		return fmt.Errorf("%s/%d dynamic edges missing under %s; first: %s",
			an.CG.Mode.String(), missing, an.CG.Mode.String(), first)
	}
	return nil
}

func checkContainmentCHA(c *caseRun) error {
	if _, err := c.irProg(); err != nil {
		return errSkip
	}
	g, err := c.dynGraph()
	if err != nil {
		return err
	}
	an, err := c.cha()
	if err != nil {
		return err
	}
	return containment(g, an)
}

func checkContainmentRTA(c *caseRun) error {
	if _, err := c.irProg(); err != nil {
		return errSkip
	}
	g, err := c.dynGraph()
	if err != nil {
		return err
	}
	an, err := c.rtaObj()
	if err != nil {
		return err
	}
	return containment(g, an)
}

func checkPruneRanking(c *caseRun) error {
	prog, err := c.irProg()
	if err != nil {
		return errSkip
	}
	run := func(prune []bool) (*depgraph.Graph, int64, error) {
		p := profiler.New(prog, profiler.Options{Slots: 16, Prune: prune})
		m := interp.New(prog)
		m.Tracer = p
		m.Prune = prune
		m.MaxSteps = maxFuzzSteps
		if err := m.Run(); err != nil {
			return nil, 0, err
		}
		return p.G, m.PrunedEvents, nil
	}
	gFull, zero, err := run(nil)
	if err != nil {
		return fmt.Errorf("unpruned run failed: %v", err)
	}
	if zero != 0 {
		return fmt.Errorf("unpruned run counted %d pruned events", zero)
	}
	an, err := c.rta()
	if err != nil {
		return err
	}
	prune, _ := staticanalysis.PruneSetWith(prog, an.Sum)
	gPruned, _, err := run(prune)
	if err != nil {
		return fmt.Errorf("pruned run failed: %v", err)
	}
	full := costben.NewAnalysis(gFull).RankBySite(4)
	pruned := costben.NewAnalysis(gPruned).RankBySite(4)
	if len(full) != len(pruned) {
		return fmt.Errorf("site count %d vs %d under prune", len(full), len(pruned))
	}
	for i := range full {
		f, p := full[i], pruned[i]
		if f.Site != p.Site || f.NRAC != p.NRAC || f.NRAB != p.NRAB || f.Consumed != p.Consumed {
			return fmt.Errorf("rank %d diverges under prune: %v vs %v", i, f, p)
		}
	}
	return nil
}

type findingKey struct {
	class, method string
	pc            int
}

func keySet(fs []staticanalysis.Finding, kind staticanalysis.Kind) map[findingKey]bool {
	out := make(map[findingKey]bool)
	for _, f := range fs {
		if f.Kind == kind {
			out[findingKey{f.Class, f.Method, f.PC}] = true
		}
	}
	return out
}

func subsetErr(what string, sub, super map[findingKey]bool) error {
	for k := range sub {
		if !super[k] {
			return fmt.Errorf("%s violated: %s.%s:%d found by the smaller engine only",
				what, k.class, k.method, k.pc)
		}
	}
	return nil
}

// checkVetAgreement pins the SSA-vs-dense vet relations proven on the fixed
// workloads: the SSA engine may differ from the dense engine only in
// directions that are precision improvements.
func checkVetAgreement(c *caseRun) error {
	prog, err := c.irProg()
	if err != nil {
		return errSkip
	}
	an, err := c.rta()
	if err != nil {
		return err
	}
	dense := staticanalysis.VetDenseWith(prog, an)
	sparse := staticanalysis.VetWith(prog, an)

	if err := subsetErr("dead-store (dense ⊆ ssa)",
		keySet(dense, staticanalysis.KindDeadStore), keySet(sparse, staticanalysis.KindDeadStore)); err != nil {
		return err
	}
	if err := subsetErr("unused-alloc (dense ⊆ ssa)",
		keySet(dense, staticanalysis.KindUnusedAlloc), keySet(sparse, staticanalysis.KindUnusedAlloc)); err != nil {
		return err
	}
	denseUnreach := keySet(dense, staticanalysis.KindUnreachable)
	if err := subsetErr("unreachable (dense ⊆ ssa)",
		denseUnreach, keySet(sparse, staticanalysis.KindUnreachable)); err != nil {
		return err
	}
	if err := subsetErr("uninit-read (ssa ⊆ dense)",
		keySet(sparse, staticanalysis.KindUninitRead), keySet(dense, staticanalysis.KindUninitRead)); err != nil {
		return err
	}
	ccSuper := keySet(sparse, staticanalysis.KindCalleeClobbered)
	for k := range keySet(sparse, staticanalysis.KindDeadStore) {
		ccSuper[k] = true
	}
	if err := subsetErr("callee-clobbered (dense ⊆ ssa ∪ ssa-dead)",
		keySet(dense, staticanalysis.KindCalleeClobbered), ccSuper); err != nil {
		return err
	}
	// The escape lints come from one shared helper: exact equality.
	for _, k := range []staticanalysis.Kind{staticanalysis.KindConfinedAllocInLoop, staticanalysis.KindCopyChain} {
		if err := subsetErr(k.String()+" (dense ⊆ ssa)", keySet(dense, k), keySet(sparse, k)); err != nil {
			return err
		}
		if err := subsetErr(k.String()+" (ssa ⊆ dense)", keySet(sparse, k), keySet(dense, k)); err != nil {
			return err
		}
	}
	// Extra SSA unreachable reports must carry the SCCP attribution.
	for _, f := range sparse {
		if f.Kind != staticanalysis.KindUnreachable {
			continue
		}
		k := findingKey{f.Class, f.Method, f.PC}
		if !denseUnreach[k] && !strings.Contains(f.Detail, "constant propagation") {
			return fmt.Errorf("extra unreachable report without SCCP attribution: %v", f)
		}
	}
	// Write-only fields are computed identically by both engines.
	var dWO, sWO []string
	for _, f := range dense {
		if f.Kind == staticanalysis.KindWriteOnlyField {
			dWO = append(dWO, f.String())
		}
	}
	for _, f := range sparse {
		if f.Kind == staticanalysis.KindWriteOnlyField {
			sWO = append(sWO, f.String())
		}
	}
	sort.Strings(dWO)
	sort.Strings(sWO)
	if strings.Join(dWO, "\n") != strings.Join(sWO, "\n") {
		return fmt.Errorf("write-only-field reports differ:\ndense: %v\nssa:   %v", dWO, sWO)
	}
	return nil
}

func checkEscapeSoundness(c *caseRun) error {
	prog, err := c.irProg()
	if err != nil {
		return errSkip
	}
	obs := escape.NewObserver()
	m := interp.New(prog)
	m.Tracer = obs
	m.MaxSteps = maxFuzzSteps
	if err := m.Run(); err != nil {
		return fmt.Errorf("observed run failed: %v", err)
	}
	escaped := obs.EscapedSites()
	for _, which := range []func() (*interproc.Analysis, error){c.cha, c.rtaObj} {
		an, err := which()
		if err != nil {
			return err
		}
		r := escape.Analyze(an)
		for _, s := range escaped {
			si := r.Site(s)
			if si == nil {
				return fmt.Errorf("%s: dynamically escaped site %d is not statically reachable",
					an.CG.Mode.String(), s)
			}
			if si.State == escape.NoEscape {
				return fmt.Errorf("%s: dynamically escaped site %d (%s) classified no-escape",
					an.CG.Mode.String(), s, r.SiteName(si))
			}
		}
	}
	return nil
}

// checkReportStability re-emits every textual report twice and requires the
// bytes to match: profile report + serialized profile, static slice, and
// static audit must all be deterministic for a fixed input.
func checkReportStability(c *caseRun) error {
	if _, err := c.irProg(); err != nil {
		return errSkip
	}
	fac, err := c.facade()
	if err != nil {
		return err
	}
	ctx := context.Background()
	a, err := c.profile()
	if err != nil {
		return fmt.Errorf("profile failed: %v", err)
	}
	b, err := c.profile()
	if err != nil {
		return fmt.Errorf("profile re-run failed: %v", err)
	}
	if a.report != b.report || a.saved != b.saved || a.multihop != b.multihop || a.stats != b.stats {
		return fmt.Errorf("profile outputs not byte-stable across re-emission")
	}
	s1, err := fac.StaticSliceContext(ctx)
	if err != nil {
		return fmt.Errorf("slice failed: %v", err)
	}
	s2, err := fac.StaticSliceContext(ctx)
	if err != nil {
		return fmt.Errorf("slice re-run failed: %v", err)
	}
	if s1 != s2 {
		return fmt.Errorf("static slice report not byte-stable across re-emission")
	}
	a1, err := fac.StaticAudit(ctx)
	if err != nil {
		return fmt.Errorf("audit failed: %v", err)
	}
	a2, err := fac.StaticAudit(ctx)
	if err != nil {
		return fmt.Errorf("audit re-run failed: %v", err)
	}
	if a1 != a2 {
		return fmt.Errorf("static audit report not byte-stable across re-emission")
	}
	return nil
}

// CheckAll runs the full suite on one source and returns every violation.
// A source that fails to compile yields exactly the "compiles" violation;
// the remaining invariants are not applicable to it.
func CheckAll(src string) []Violation {
	c := newCaseRun(src)
	var out []Violation
	for _, inv := range Invariants() {
		if err := inv.check(c); err != nil && err != errSkip {
			out = append(out, Violation{Invariant: inv.Name, Detail: err.Error()})
		}
	}
	return out
}

// FailureClass canonicalizes a failure detail into a coarse signature:
// digits are dropped (costs, PCs, and counts change as a program shrinks)
// and the remainder is truncated. The shrinker requires candidates to keep
// the original failure's class so a deletion cannot morph, say, a ranking
// divergence into an unrelated null dereference that happens to fail the
// same invariant.
func FailureClass(detail string) string {
	var b strings.Builder
	for i := 0; i < len(detail); i++ {
		if c := detail[i]; c < '0' || c > '9' {
			b.WriteByte(c)
		}
	}
	s := b.String()
	if len(s) > 48 {
		s = s[:48]
	}
	return s
}

// CheckNamed runs a single invariant on one source. It reports whether that
// invariant fails and, if so, the failure detail. A non-compiling source
// fails only the "compiles" invariant — for every other name it reports
// false, which is what lets the shrinker reject candidates that break
// compilation instead of chasing a different bug.
func CheckNamed(name, src string) (bool, string) {
	for _, inv := range Invariants() {
		if inv.Name != name {
			continue
		}
		c := newCaseRun(src)
		if err := inv.check(c); err != nil && err != errSkip {
			return true, err.Error()
		}
		return false, ""
	}
	return false, ""
}
