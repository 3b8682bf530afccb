package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// readRuns collects, per metric, the values of every result line in
// dir/<workload>.jsonl. Lines that are not result objects are skipped; a
// result line of a run that failed its output checks is an error, since
// its figures measure work that was not done right.
func readRuns(dir, workload string) (map[string][]float64, error) {
	f, err := os.Open(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Metrics == nil {
			continue
		}
		if !r.Correct || r.Failed != 0 {
			return nil, fmt.Errorf("%s line %d: run not correct (%d of %d failed)", f.Name(), n, r.Failed, r.Attempted)
		}
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(xs []float64) (q1, med, q3, rel float64) {
	q1, med, q3 = quartiles(xs)
	return q1, med, q3, (q3 - q1) / med
}

// verdict judges set B against set A for one metric: "worse" or "better"
// when B's median moved past the bound in that direction, else "agree".
// When either set's spread exceeds the bound it is "unresolved", unless
// every run of one set reads better than every run of the other.
func verdict(a, b []float64, better string, bound float64) string {
	_, ma, _, sa := spread(a)
	_, mb, _, sb := spread(b)
	sign := 1.0 // positive change is worse
	if better == "higher" {
		sign = -1
	}
	if !(sa <= bound) || !(sb <= bound) {
		as, bs := sorted(a), sorted(b)
		below := bs[len(bs)-1] < as[0] // every B run below every A run
		above := bs[0] > as[len(as)-1]
		switch {
		case below && sign > 0, above && sign < 0:
			return "better"
		case above && sign > 0, below && sign < 0:
			return "worse"
		}
		return "unresolved"
	}
	change := sign * (mb - ma) / ma
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "agree"
}

// compareRuns prints, for each workload and end-to-end metric, both sets'
// medians and quartiles and the verdict. It returns 1 when any metric is
// worse or unresolved, or when a workload's runs are missing or include
// a run that failed its checks.
func compareRuns(out io.Writer, b *benchmarkFile, dirA, dirB string) int {
	status := 0
	for _, w := range b.Workloads {
		a, errA := readRuns(dirA, w.Name)
		bb, errB := readRuns(dirB, w.Name)
		if errA != nil || errB != nil {
			fmt.Fprintf(out, "%s: not compared (%v %v)\n", w.Name, errA, errB)
			status = 1
			continue
		}
		fmt.Fprintf(out, "%s\n", w.Name)
		fmt.Fprintf(out, "  %-18s %-34s %-34s %8s  %s\n", "metric", "A median [q1, q3] spread", "B median [q1, q3] spread", "B vs A", "verdict")
		for _, m := range b.EndToEnd {
			xa, xb := a[m.Name], bb[m.Name]
			if len(xa) < 2 || len(xb) < 2 {
				fmt.Fprintf(out, "  %-18s too few runs (%d, %d)\n", m.Name, len(xa), len(xb))
				status = 1
				continue
			}
			v := verdict(xa, xb, m.Better, m.Bound)
			if v == "worse" || v == "unresolved" {
				status = 1
			}
			q1a, ma, q3a, sa := spread(xa)
			q1b, mb, q3b, sb := spread(xb)
			fmt.Fprintf(out, "  %-18s %-34s %-34s %+7.1f%%  %s (bound %.0f%%)\n", m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", ma, q1a, q3a, 100*sa),
				fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", mb, q1b, q3b, 100*sb),
				100*(mb-ma)/ma, v, 100*m.Bound)
		}
	}
	return status
}

// printDescription prints the workloads and metrics of BENCHMARK.json
// with their rationale.
func printDescription(w io.Writer, b *benchmarkFile) {
	fmt.Fprintln(w, "workloads:")
	for _, d := range b.Workloads {
		fmt.Fprintf(w, "  %-16s %s\n", d.Name, d.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (tracing off):")
	for _, d := range b.EndToEnd {
		fmt.Fprintf(w, "  %-18s %-6s %s is better, bound %.0f%%\n", d.Name, d.Unit, d.Better, 100*d.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (--trace 1):")
	for _, d := range b.PerLayer {
		r := layerRationale[d.Name]
		fmt.Fprintf(w, "  %-30s %-8s %-6s moves: %s; flat on: %s\n", d.Name, d.Unit, d.Better, r.Moves, r.Flat)
	}
	fmt.Fprintf(w, "seeds: default %d, held out %d\n", defaultSeed, heldOutSeed)
	fmt.Fprintln(w, "overhead_x is measured inside the timed loop on profile-large and over")
	fmt.Fprintln(w, "the workload's own programs right after the timed window on the others.")
}
