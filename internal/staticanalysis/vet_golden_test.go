package staticanalysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowutil/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestVetGoldenWorkloads runs the full vet suite (with its default
// interprocedural pipeline) over every workload and compares the rendered
// findings against testdata/vet/<name>.golden. The goldens pin both the
// diagnostics themselves and their byte order, so any change to a check, to
// a workload, or to iteration determinism shows up as a diff. Regenerate
// deliberately with:
//
//	go test ./internal/staticanalysis -run TestVetGoldenWorkloads -update
func TestVetGoldenWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, f := range Vet(prog) {
				sb.WriteString(f.String())
				sb.WriteByte('\n')
			}
			got := sb.String()
			path := filepath.Join("testdata", "vet", w.Name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("vet output diverges from %s (regenerate with -update if intended):\n--- got\n%s--- want\n%s",
					path, got, want)
			}
		})
	}
}
