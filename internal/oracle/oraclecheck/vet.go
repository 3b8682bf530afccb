package oraclecheck

import (
	"errors"
	"fmt"
	"strings"

	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/oracle"
	"lowutil/internal/staticanalysis"
)

// VetFacts derives the oracle vet's two whole-program facts from an, the
// analysis the engine under test runs over; a nil an gives none.
func VetFacts(an *interproc.Analysis) oracle.VetFacts {
	if an == nil {
		return oracle.VetFacts{}
	}
	unread := an.UnreadAllocSites()
	return oracle.VetFacts{
		ArgIgnored: func(call *ir.Instr, i int) bool {
			return an.CG.Reachable(call.Method) && an.Sum.ArgIgnoredByAllTargets(call, i)
		},
		AllocUnused: func(site *ir.Instr) bool {
			return an.CG.Reachable(site.Method) && unread[site.ID]
		},
	}
}

type vetKey struct {
	Class, Method string
	PC            int
}

// Vet compares the SSA vet engine, staticanalysis.VetWith over an, with the
// oracle's path-walking vet. The engine may differ from the oracle only where
// SSA is more precise, pinned per kind:
//
//	dead-store        oracle ⊆ engine   (transitive dead chains only add)
//	unused-alloc      oracle ⊆ engine   (the phi-aware closure only adds)
//	unreachable-code  oracle ⊆ engine   (extra reports are SCCP-proven
//	                                     blocks and say so)
//	uninit-read       engine ⊆ oracle   (executable-edge taint only removes)
//	callee-clobbered  oracle ⊆ engine ∪ engine dead stores
//
// The callee-clobbered relation is looser because the engine calls a store
// whose value transitively feeds only dead computations a dead store, even
// when its direct use is an ignored call argument. Write-only fields and the
// escape lints have one implementation and are not compared. Vet returns the
// first difference of each broken relation.
func Vet(prog *ir.Program, an *interproc.Analysis) error {
	want := make(map[string]map[vetKey]bool)
	for _, f := range oracle.Vet(prog, VetFacts(an)) {
		if want[f.Kind] == nil {
			want[f.Kind] = make(map[vetKey]bool)
		}
		want[f.Kind][vetKey{f.Method.Class.Name, f.Method.Name, f.PC}] = true
	}
	got := make(map[string]map[vetKey]bool)
	var sccp []staticanalysis.Finding
	for _, f := range staticanalysis.VetWith(prog, an) {
		k := f.Kind.String()
		if got[k] == nil {
			got[k] = make(map[vetKey]bool)
		}
		got[k][vetKey{f.Class, f.Method, f.PC}] = true
		if f.Kind == staticanalysis.KindUnreachable {
			sccp = append(sccp, f)
		}
	}
	subset := func(what string, sub, super map[vetKey]bool) error {
		for k := range sub {
			if !super[k] {
				return fmt.Errorf("%s: %s.%s:%d breaks it", what, k.Class, k.Method, k.PC)
			}
		}
		return nil
	}
	const (
		deadStore   = "dead-store"
		unreachable = "unreachable-code"
		clobbered   = "callee-clobbered-store"
	)
	engineDead := make(map[vetKey]bool)
	for _, k := range []string{deadStore, clobbered} {
		for key := range got[k] {
			engineDead[key] = true
		}
	}
	errs := []error{
		subset("dead-store (oracle ⊆ engine)", want[deadStore], got[deadStore]),
		subset("unused-alloc (oracle ⊆ engine)", want["unused-alloc"], got["unused-alloc"]),
		subset("unreachable-code (oracle ⊆ engine)", want[unreachable], got[unreachable]),
		subset("uninit-read (engine ⊆ oracle)", got["uninit-read"], want["uninit-read"]),
		subset("callee-clobbered (oracle ⊆ engine ∪ engine dead stores)", want[clobbered], engineDead),
	}
	for _, f := range sccp {
		if !want[unreachable][vetKey{f.Class, f.Method, f.PC}] && !strings.Contains(f.Detail, "constant propagation") {
			errs = append(errs, fmt.Errorf("extra unreachable-code report without SCCP attribution: %v", f))
			break
		}
	}
	return errors.Join(errs...)
}
