package lowutil

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateProfileGolden = flag.Bool("update", false, "rewrite the profile golden files under testdata/profile/")

// profileGolden renders everything a default profile run shows a user: the
// ranked report, the two-hop top-10, the graph/deadness/steps line, and a
// SHA-256 of the serialized profile (the Save bytes themselves are too
// large to commit per workload).
func profileGolden(t *testing.T, prog *Program) string {
	t.Helper()
	profile, err := prog.ProfileContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := profile.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(profile.Report(DefaultTop))
	b.WriteString("--- multi-hop (hops=2)\n")
	for i, f := range profile.TopStructuresMultiHop(10, 2) {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, f)
	}
	fmt.Fprintf(&b, "--- stats\n%+v %+v steps=%d\n", profile.GraphStats(), profile.Deadness(), profile.Steps())
	fmt.Fprintf(&b, "--- save sha256\n%x\n", sha256.Sum256(saved.Bytes()))
	return b.String()
}

// TestProfileGoldenWorkloads profiles every workload at scale 1 with the
// default options and compares the rendered outputs against
// testdata/profile/<name>.golden byte for byte. Any change to Gcost
// construction, the cost-benefit metrics, deadness, ranking order, or the
// serialized format shows up as a diff. Regenerate deliberately with:
//
//	go test . -run TestProfileGoldenWorkloads -update
//
// (or `make profile-goldens`).
func TestProfileGoldenWorkloads(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			got := profileGolden(t, compileWorkload(t, w, 1))
			path := filepath.Join("testdata", "profile", w.Name+".golden")
			if *updateProfileGolden {
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
				t.Fatalf("%v (regenerate with -update or `make profile-goldens`)", err)
			}
			if got != string(want) {
				t.Errorf("profile outputs diverge from %s (regenerate with -update if intended):\n--- got\n%s--- want\n%s",
					path, got, want)
			}
		})
	}
}
