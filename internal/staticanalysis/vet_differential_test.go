package staticanalysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/oracle"
	"lowutil/internal/oracle/oraclecheck"
	"lowutil/internal/staticanalysis"
	"lowutil/internal/workloads"
)

// Differential test between the SSA vet engine and the oracle's naive
// path-walking vet (package oracle). oraclecheck.Vet holds the per-kind
// containment relations; this test runs them on every workload.
//
// The per-workload finding counts of both are golden-filed in
// testdata/vet/differential.golden as oracle/engine, so a precision
// regression in either — or an SSA "improvement" that silently explodes the
// report — shows up as a diff. The oracle models the per-method kinds only;
// write-only fields and the escape lints have one implementation, whose
// count appears on both sides.
func TestVetDifferential(t *testing.T) {
	var report strings.Builder
	for _, w := range workloads.All() {
		w := w
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		an := interproc.Analyze(prog, interproc.Config{Mode: interproc.RTA})
		t.Run(w.Name, func(t *testing.T) {
			if err := oraclecheck.Vet(prog, an); err != nil {
				t.Error(err)
			}
		})

		want := make(map[string]int)
		for _, f := range oracle.Vet(prog, oraclecheck.VetFacts(an)) {
			want[f.Kind]++
		}
		got := make(map[string]int)
		for _, f := range staticanalysis.VetWith(prog, an) {
			got[f.Kind.String()]++
		}
		report.WriteString(w.Name)
		for k := staticanalysis.KindDeadStore; k <= staticanalysis.KindCopyChain; k++ {
			ref := want[k.String()]
			switch k {
			case staticanalysis.KindWriteOnlyField, staticanalysis.KindConfinedAllocInLoop, staticanalysis.KindCopyChain:
				ref = got[k.String()]
			}
			fmt.Fprintf(&report, " %s=%d/%d", k, ref, got[k.String()])
		}
		report.WriteByte('\n')
	}

	path := filepath.Join("testdata", "vet", "differential.golden")
	if *staticanalysis.UpdateGolden {
		if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if report.String() != string(want) {
		t.Errorf("oracle/ssa finding counts diverge from %s (regenerate with -update if intended):\n--- got\n%s--- want\n%s",
			path, report.String(), want)
	}
}

// TestVetEntryLoop: the method's entry is a loop header, so the read of v1
// at pc0 is uninitialized on the first iteration and initialized by pc1 on
// every later one:
//
//	pc0: v2 = v1
//	pc1: v1 = 5
//	pc2: if v0 < v2 goto 0
//	pc3: return
//
// The oracle and the SSA engine must both report exactly that read, and no
// dead store at pc1, whose value the back edge carries to pc0.
func TestVetEntryLoop(t *testing.T) {
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)
	f := b.Method(cls, "f", true, 1, nil)
	mb := b.Body(f)
	mb.Move(2, 1)         // pc0
	mb.Const(1, 5)        // pc1
	mb.If(0, ir.Lt, 2, 0) // pc2
	mb.ReturnVoid()       // pc3
	mn := b.Method(cls, "main", true, 0, nil)
	mmb := b.Body(mn)
	mmb.Const(0, 3)
	mmb.Call(-1, f, 0)
	mmb.ReturnVoid()
	prog, err := b.Seal("Main", "main")
	if err != nil {
		t.Fatal(err)
	}
	an := interproc.Analyze(prog, interproc.Config{Mode: interproc.RTA})
	if err := oraclecheck.Vet(prog, an); err != nil {
		t.Error(err)
	}
	var ref []string
	for _, fd := range oracle.Vet(prog, oraclecheck.VetFacts(an)) {
		ref = append(ref, fmt.Sprintf("%s@%s:%d", fd.Kind, fd.Method.Name, fd.PC))
	}
	var got []string
	for _, fd := range staticanalysis.VetWith(prog, an) {
		got = append(got, fmt.Sprintf("%s@%s:%d", fd.Kind, fd.Method, fd.PC))
	}
	want := "[uninit-read@f:0]"
	if fmt.Sprint(ref) != want || fmt.Sprint(got) != want {
		t.Errorf("oracle %v, ssa %v; want both %s", ref, got, want)
	}
}
