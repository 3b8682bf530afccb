// Differential proof that the profiling engine — handler-table dispatch with
// inline caches over the dense interned Gcost, the frozen cost-benefit DP
// and the condensed deadness analysis — computes what the paper defines:
// on every workload its Gcost and metrics equal those of the deliberately
// naive reference in internal/oracle, which evaluates the IR itself. Also:
// the unprofiled VM and the oracle agree on output and counters, on
// completing runs and on runs that end in each VM error kind, two
// concurrent profiles share no state, and a fuzz harness drives
// inline-cache invalidation under receiver-class rebinding.
package lowutil

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/oracle"
	"lowutil/internal/oracle/oraclecheck"
	"lowutil/internal/workloads"
)

// diffWorkloads is the sweep list: all 18 workloads, trimmed to a spread of
// dispatch-heavy ones under -short so the -race pass stays fast.
func diffWorkloads(t testing.TB) []*workloads.Workload {
	all := workloads.All()
	if !testing.Short() {
		return all
	}
	var subset []*workloads.Workload
	for _, w := range all {
		switch w.Name {
		case "chart", "bloat", "eclipse", "tradebeans":
			subset = append(subset, w)
		}
	}
	if len(subset) == 0 {
		t.Fatal("short subset selected no workloads")
	}
	return subset
}

func compileWorkload(t testing.TB, w *workloads.Workload, scale int) *Program {
	t.Helper()
	prog, err := Compile(w.Source(scale))
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return prog
}

// checkAgainstOracle profiles prog through the facade with opts and
// requires its Gcost, every cost-benefit metric at the run's tree height,
// and the deadness measurement to equal those of the oracle's own
// evaluation under the same options, which it returns.
func checkAgainstOracle(t testing.TB, prog *Program, opts ...ProfileOption) *oracle.Result {
	t.Helper()
	profile, err := prog.ProfileContext(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Run(prog.prog, applyProfileOptions(opts).Slots, 0)
	if want.Err != "" {
		t.Fatal(want.Err)
	}
	if want.Steps != profile.Steps() {
		t.Fatalf("steps: oracle %d, engine %d", want.Steps, profile.Steps())
	}
	if err := oraclecheck.All(want.G, profile.prof.G, want.Steps, profile.height); err != nil {
		t.Fatal(err)
	}
	return want
}

// agree runs prog unprofiled on the VM and requires the oracle's evaluation
// want to match it (see oraclecheck.Machine).
func agree(t testing.TB, prog *ir.Program, maxSteps int64, want *oracle.Result) {
	t.Helper()
	m := interp.New(prog)
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	if err := oraclecheck.Machine(want, m, m.Run()); err != nil {
		t.Error(err)
	}
}

// TestEngineDifferentialAllWorkloads proves the profiling engine — the
// handler-table interpreter with inline caches, the dense interned Gcost,
// the frozen cost-benefit DP and the condensed deadness analysis — agrees
// with the definition-level oracle on every workload: any lost event,
// misattributed context, or DP shortcut that changes a count surfaces here.
func TestEngineDifferentialAllWorkloads(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		t.Run(w.Name, func(t *testing.T) {
			checkAgainstOracle(t, compileWorkload(t, w, 1))
		})
	}
}

// TestEngineDifferentialOptions repeats the oracle comparison at other
// context-slot counts and tree heights.
func TestEngineDifferentialOptions(t *testing.T) {
	configs := map[string][]ProfileOption{
		"slots4":  {WithSlots(4)},
		"height2": {WithSlots(1), WithTreeHeight(2)},
	}
	for _, name := range []string{"chart", "bloat", "eclipse"} {
		prog := compileWorkload(t, workloads.ByName(name), 1)
		for cname, opts := range configs {
			t.Run(name+"/"+cname, func(t *testing.T) { checkAgainstOracle(t, prog, opts...) })
		}
	}
}

// TestInterpreterDifferentialAllWorkloads pins the uninstrumented VM
// against the oracle's own evaluation: every workload must print the same
// output with the same step, allocation and native-work counts.
func TestInterpreterDifferentialAllWorkloads(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, prog, 0, oracle.Run(prog, 16, 0))
		})
	}
}

// TestErrorPathParity ends one small program in each VM error kind a
// well-typed program can reach; the VM and the oracle must agree on the
// kind, on the output printed before it and on the step count, which
// includes the failing instruction.
func TestErrorPathParity(t *testing.T) {
	const step = `int s = 0; for (int i = 0; i < 100000; i = i + 1) { s = s + i; } print(s);`
	cases := []struct {
		name, kind, body string
		maxSteps         int64
	}{
		{"null-field", "null dereference", `print(1); P p = null; print(p.x);`, 0},
		{"null-call", "null dereference", `P p = new P(); print(p.get()); p = null; print(p.get());`, 0},
		{"null-length", "null dereference", `int[] a = null; print(2); print(a.length);`, 0},
		{"index", "index out of bounds", `int[] a = new int[3]; a[2] = 7; print(a[2]); print(a[3]);`, 0},
		{"negative-length", "index out of bounds", `int n = 2 - 5; print(n); int[] a = new int[n];`, 0},
		{"div", "division by zero", `int z = rand(1); print(7 / (z + 1)); print(7 / z);`, 0},
		{"rem", "division by zero", `int z = rand(1); print(7 % (z + 2)); print(7 % z);`, 0},
		{"step-limit", "step limit exceeded", step, 500},
		{"stack-overflow", "stack overflow", `print(3); print(deep(0));`, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Compile(`
class P { int x; int get() { return this.x + 1; } }
class Main {
  static int deep(int n) { return deep(n + 1) + 1; }
  static void main() { ` + c.body + ` }
}`)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.Run(prog.prog, 16, c.maxSteps)
			if string(want.Err) != c.kind {
				t.Fatalf("oracle ended in %q, want %q", want.Err, c.kind)
			}
			agree(t, prog.prog, c.maxSteps, want)
		})
	}
}

// TestConcurrentProfilesShareNoState runs two profiles of the same compiled
// program concurrently and requires both to match a sequential reference
// byte for byte. Under -race (make check) this proves the hot path keeps
// all mutable state — dense tables, inline caches, shadow slabs — inside
// the profiler/machine pair rather than on the shared program.
func TestConcurrentProfilesShareNoState(t *testing.T) {
	w := workloads.ByName("eclipse")
	prog := compileWorkload(t, w, 1)
	seq, err := prog.ProfileContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := seq.Report(DefaultTop)

	results := make([]string, 2)
	errs := make([]error, 2)
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer func() { done <- i }()
			profile, err := prog.ProfileContext(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = profile.Report(DefaultTop)
		}(i)
	}
	<-done
	<-done
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent profile %d: %v", i, errs[i])
		}
		if results[i] != ref {
			t.Errorf("concurrent profile %d diverged from sequential reference", i)
		}
	}
}

// icFuzzSource builds a program whose single hot call site rebinds its
// receiver class on every iteration according to seq: the inline cache at
// the x.tag() site is filled, invalidated, and refilled in whatever order
// the fuzzer chooses. The driver also rebinds through an array so the
// array-element load path feeds the same cache.
func icFuzzSource(seq []byte) string {
	var picks strings.Builder
	for i, b := range seq {
		var cls string
		switch b % 3 {
		case 0:
			cls = "A"
		case 1:
			cls = "B"
		default:
			cls = "C"
		}
		fmt.Fprintf(&picks, "    xs[%d] = new %s();\n", i, cls)
	}
	return fmt.Sprintf(`
class A { int tag() { return 1; } }
class B extends A { int tag() { return 22; } }
class C extends B { int tag() { return 333; } }
class Main {
  static void main() {
    A[] xs = new A[%d];
%s    int total = 0;
    for (int r = 0; r < 3; r = r + 1) {
      for (int i = 0; i < xs.length; i = i + 1) {
        total = total + xs[i].tag();
      }
    }
    print(total);
  }
}`, len(seq), picks.String())
}

// FuzzInlineCacheInvalidation drives the inline-cache invalidation protocol
// with arbitrary receiver-class rebinding sequences. For every sequence the
// profiled run must agree with the oracle's evaluation, and the unprofiled
// VM must print the same output with the same counters.
func FuzzInlineCacheInvalidation(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{2, 2, 2, 1, 0, 1, 2, 0})
	f.Add(bytes.Repeat([]byte{0, 1}, 16))
	f.Add(bytes.Repeat([]byte{2, 1, 0}, 10))
	f.Fuzz(func(t *testing.T, seq []byte) {
		if len(seq) == 0 || len(seq) > 64 {
			t.Skip()
		}
		prog, err := Compile(icFuzzSource(seq))
		if err != nil {
			t.Fatalf("generated program failed to compile: %v", err)
		}
		agree(t, prog.prog, 0, checkAgainstOracle(t, prog))
	})
}
