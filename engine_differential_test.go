// Differential proof that the profiling engine — handler-table dispatch with
// inline caches over the dense interned Gcost, the frozen cost-benefit DP
// and the condensed deadness analysis — computes what the paper defines:
// on every workload its Gcost and metrics equal those of the deliberately
// naive reference in internal/oracle. Also: the handler-table and switch
// interpreter loops agree unprofiled, two concurrent profiles share no
// state, and a fuzz harness drives inline-cache invalidation under
// receiver-class rebinding.
package lowutil

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"lowutil/internal/interp"
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
// and the deadness measurement to equal the oracle's, which is built on the
// switch interpreter loop from the same options.
func checkAgainstOracle(t testing.TB, prog *Program, opts ...ProfileOption) {
	t.Helper()
	profile, err := prog.ProfileContext(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, steps, err := oracle.Profile(prog.prog, applyProfileOptions(opts).Slots, 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps != profile.Steps() {
		t.Fatalf("steps: oracle %d, engine %d", steps, profile.Steps())
	}
	if err := oraclecheck.All(want, profile.prof.G, steps, profile.height); err != nil {
		t.Fatal(err)
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

// TestInterpreterDifferentialAllWorkloads pins the uninstrumented engines
// against each other: handler-table dispatch must execute every workload to
// the same output, step count, and allocation count as the legacy switch.
func TestInterpreterDifferentialAllWorkloads(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		t.Run(w.Name, func(t *testing.T) {
			src, err := w.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			m1 := interp.New(src)
			if err := m1.Run(); err != nil {
				t.Fatal(err)
			}
			m2 := interp.New(src)
			m2.LegacyDispatch = true
			if err := m2.Run(); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(m1.Output) != fmt.Sprint(m2.Output) {
				t.Errorf("output differs: %v vs %v", m1.Output, m2.Output)
			}
			if m1.Steps != m2.Steps || m1.Allocs != m2.Allocs || m1.NativeWork != m2.NativeWork {
				t.Errorf("counters differ: steps %d/%d allocs %d/%d native %d/%d",
					m1.Steps, m2.Steps, m1.Allocs, m2.Allocs, m1.NativeWork, m2.NativeWork)
			}
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
// handler-table and switch interpreter loops must print the same output
// and take the same number of steps, and the profiled run must agree with
// the oracle (itself run on the switch loop).
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
		run := func(legacy bool) (string, int64) {
			m := interp.New(prog.prog)
			m.LegacyDispatch = legacy
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(m.Output), m.Steps
		}
		out, steps := run(false)
		lout, lsteps := run(true)
		if out != lout || steps != lsteps {
			t.Fatalf("engines diverge on seq %v: %q/%d vs %q/%d", seq, out, steps, lout, lsteps)
		}
		checkAgainstOracle(t, prog)
	})
}
