package interproc

import (
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/ssa"
	"lowutil/internal/workloads"
)

// The frequency-weighted bounds must be a sound refinement of the unweighted
// PR 3 bounds: weight-0 pruning only ever removes proven-dead instructions
// from the slices, so per location the weighted CostBound/BenefitBound can
// never exceed the unweighted ones, and a location statically consumed under
// weighting was consumed before. Across the workload suite at least one bound
// must strictly shrink — otherwise the weighting machinery is vacuous.
func TestWeightedBoundsNeverLooser(t *testing.T) {
	shortSet := map[string]bool{"chart": true, "avrora": true, "hsqldb": true, "luindex": true}
	strict := 0
	for _, w := range workloads.All() {
		if testing.Short() && !shortSet[w.Name] {
			continue
		}
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		an := Analyze(prog, Config{Mode: RTA})
		plain := an.Slice.Bounds()
		weighted := an.Bounds()
		if len(plain) != len(weighted) {
			t.Fatalf("%s: weighting changed the location set: %d vs %d", w.Name, len(plain), len(weighted))
		}
		byKey := make(map[Loc]*LocBound, len(plain))
		for i := range plain {
			byKey[plain[i].Key] = &plain[i]
		}
		for i := range weighted {
			wb := &weighted[i]
			pb := byKey[wb.Key]
			if pb == nil {
				t.Fatalf("%s: location %v only exists under weighting", w.Name, wb.Key)
			}
			if wb.CostBound > pb.CostBound || wb.BenefitBound > pb.BenefitBound {
				t.Errorf("%s: %s: weighted bounds looser: cost %d>%d or benefit %d>%d",
					w.Name, an.LocName(wb.Key), wb.CostBound, pb.CostBound, wb.BenefitBound, pb.BenefitBound)
			}
			if wb.Consumed && !pb.Consumed {
				t.Errorf("%s: %s: weighting fabricated a consumer witness", w.Name, an.LocName(wb.Key))
			}
			if wb.Stores != pb.Stores || wb.Loads != pb.Loads {
				t.Errorf("%s: %s: weighting changed raw store/load counts", w.Name, an.LocName(wb.Key))
			}
			if wb.CostBound < pb.CostBound || wb.BenefitBound < pb.BenefitBound {
				strict++
			}
		}
	}
	// The -short subset happens to contain no prunable dead code, so the
	// non-vacuity claim is only checked on the full suite.
	if strict == 0 && !testing.Short() {
		t.Error("no bound strictly tightened on any workload; weight-0 pruning is vacuous")
	}
}

// execRecorder marks every instruction the interpreter touches.
type execRecorder struct {
	interp.NopTracer
	hit []bool
}

func (r *execRecorder) Exec(ev *interp.Event) { r.hit[ev.In.ID] = true }
func (r *execRecorder) BeforeCall(in *ir.Instr, _ *interp.Frame, _ *ir.Method, _ *interp.Object) {
	r.hit[in.ID] = true
}
func (r *execRecorder) BeforeReturn(in *ir.Instr, _ *interp.Frame) { r.hit[in.ID] = true }

// TestFreqCoversExecution is the soundness side of weight-0 pruning: every
// instruction a real run executes must carry a positive static frequency
// estimate, or the pruned slices could miss dynamic nodes.
func TestFreqCoversExecution(t *testing.T) {
	shortSet := map[string]bool{"chart": true, "avrora": true, "hsqldb": true, "luindex": true}
	for _, w := range workloads.All() {
		if testing.Short() && !shortSet[w.Name] {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			an := Analyze(prog, Config{Mode: RTA})
			rec := &execRecorder{hit: make([]bool, len(prog.Instrs))}
			m := interp.New(prog)
			m.Tracer = rec
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			for id, hit := range rec.hit {
				if hit && an.Freq[id] <= 0 {
					in := prog.Instrs[id]
					t.Errorf("executed instruction i%d (%s.%s:%d %s) has frequency %g",
						id, in.Method.Class.Name, in.Method.Name, in.PC, in, an.Freq[id])
				}
			}
		})
	}
}

// TestEntryLoopFrequency: f's loop returns to pc 0, so the entry block is a
// loop header and n needs a phi there joining the argument with the back
// edge. Without it pc 1 reads the argument on every iteration, and with IPCP
// seeding n = 3 the frequency estimate treats the executed `return n` as
// proven dead. The program prints 11.
func TestEntryLoopFrequency(t *testing.T) {
	prog, err := mjc.Compile(`
class Main {
  static void main() { print(f(3)); }
  static int f(int n) { for (;;) { n = n + 1; if (n > 10) { return n; } } return 0; }
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.ClassByName("Main").LookupMethod("f")
	if fn := ssa.Build(f, nil); len(fn.Phis[0]) != 1 {
		t.Errorf("entry block phis = %d, want 1 (for n)", len(fn.Phis[0]))
	}
	an := Analyze(prog, Config{Mode: RTA})
	ret := -1
	for pc := range f.Code {
		if in := &f.Code[pc]; in.Op == ir.OpReturn && ret < 0 {
			ret = pc
		}
	}
	if w := an.Freq[f.Code[ret].ID]; w <= 0 {
		t.Errorf("frequency of the executed return at pc %d = %v, want > 0", ret, w)
	}
}
