package staticanalysis

import (
	"testing"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/workloads"
)

// largestWorkload compiles every workload at scale 1 and returns the one
// with the most instructions (eclipse at the time of writing).
func largestWorkload(tb testing.TB) *ir.Program {
	tb.Helper()
	var best *ir.Program
	for _, w := range workloads.All() {
		prog, err := w.Compile(1)
		if err != nil {
			tb.Fatal(err)
		}
		if best == nil || prog.NumInstrs() > best.NumInstrs() {
			best = prog
		}
	}
	return best
}

func BenchmarkNewCFG(b *testing.B) {
	prog := largestWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range prog.Classes {
			for _, m := range c.Methods {
				ir.NewCFG(m)
			}
		}
	}
}

func BenchmarkPruneSet(b *testing.B) {
	prog := largestWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PruneSet(prog)
	}
}

// countingTracer counts traced events so the benchmark can report how much
// of the trace the prune set removes.
type countingTracer struct {
	interp.NopTracer
	n int64
}

func (c *countingTracer) Exec(*interp.Event) { c.n++ }

func benchTracedRun(b *testing.B, w *workloads.Workload, prune bool) {
	prog, err := w.Compile(1)
	if err != nil {
		b.Fatal(err)
	}
	var set []bool
	if prune {
		set, _ = PruneSet(prog)
	}
	var events, suppressed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct := &countingTracer{}
		m := interp.New(prog)
		m.Tracer = ct
		m.Prune = set
		m.MaxSteps = 200_000_000
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		events = ct.n
		suppressed = m.PrunedEvents
	}
	b.ReportMetric(float64(events), "events/run")
	b.ReportMetric(float64(suppressed), "suppressed/run")
}

func BenchmarkTracedRunFull(b *testing.B) {
	benchTracedRun(b, workloads.ByName("luindex"), false)
}

func BenchmarkTracedRunPruned(b *testing.B) {
	benchTracedRun(b, workloads.ByName("luindex"), true)
}
