package staticanalysis

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowutil/internal/interproc"
	"lowutil/internal/workloads"
)

// pruneDigest renders one prune set as its stats plus a SHA-256 over the
// pruned instruction IDs in ascending order, one decimal ID per line.
func pruneDigest(prune []bool, st PruneStats) string {
	h := sha256.New()
	for id, p := range prune {
		if p {
			fmt.Fprintf(h, "%d\n", id)
		}
	}
	return fmt.Sprintf("candidates=%d pruned=%d sha256=%x", st.Candidates, st.Pruned, h.Sum(nil))
}

// TestPruneSetGolden pins the exact prune sets of every workload at scale 1:
// the intraprocedural PruneSet and PruneSetWith over RTA summaries, each as
// its PruneStats and a digest of the pruned instruction IDs. The ranking
// tests only prove the sets are safe; this one makes any change to which
// instructions are pruned show up as a diff. Regenerate deliberately with:
//
//	go test ./internal/staticanalysis -run TestPruneSetGolden -update
func TestPruneSetGolden(t *testing.T) {
	var report strings.Builder
	for _, w := range workloads.All() {
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		base, bst := PruneSet(prog)
		an := interproc.Analyze(prog, interproc.Config{Mode: interproc.RTA})
		inter, ist := PruneSetWith(prog, an.Sum)
		fmt.Fprintf(&report, "%s intra %s\n", w.Name, pruneDigest(base, bst))
		fmt.Fprintf(&report, "%s rta   %s\n", w.Name, pruneDigest(inter, ist))
	}

	path := filepath.Join("testdata", "prune", "pruneset.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("prune sets diverge from %s (regenerate with -update if intended):\n--- got\n%s--- want\n%s",
			path, report.String(), want)
	}
}
