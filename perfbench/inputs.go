package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"lowutil"
	"lowutil/internal/fuzzgen"
	"lowutil/internal/workloads"
)

const (
	// largeScale is the workload scale of profile-large: big enough that
	// traced execution dominates a request and Gcost stays bounded while
	// the trace grows.
	largeScale = 8
	// serveFuzzPrograms is the fuzzgen draw added to the 18 scale-1
	// workloads. Request cost varies about 60% between fuzzgen programs,
	// so the draw is large enough that the mean over a draw varies by
	// about 4% between seeds. The population (200 programs) is larger than
	// the server's default session LRU (64), so sessions are evicted and
	// recompiled during a run.
	serveFuzzPrograms = 182
)

// Salts that separate the random streams derived from one seed.
const (
	saltFuzz  = 0xf022
	saltOrder = 0x0bde
	saltMix   = 0x5e57
)

// input is one MJ program of a workload's population.
type input struct {
	Name string
	Src  string
}

// workloadInputs generates the program population of a workload. Only the
// fuzzgen draw depends on seed; the 18 hand-written workloads are fixed.
func workloadInputs(workload string, seed uint64) []input {
	switch workload {
	case onProfile:
		return namedWorkloads(largeScale)
	case onServe:
		return append(namedWorkloads(1), fuzzInputs(seed, serveFuzzPrograms)...)
	}
	return nil
}

func namedWorkloads(scale int) []input {
	var out []input
	for _, w := range workloads.All() {
		out = append(out, input{Name: fmt.Sprintf("%s@%d", w.Name, scale), Src: w.Source(scale)})
	}
	return out
}

// fuzzInputs draws n fuzzgen programs (DefaultConfig) from seed.
func fuzzInputs(seed uint64, n int) []input {
	r := rand.New(rand.NewPCG(seed, saltFuzz))
	out := make([]input, n)
	for i := range out {
		s := r.Uint64()
		out[i] = input{Name: fmt.Sprintf("fuzz-%016x", s), Src: fuzzgen.Generate(s, fuzzgen.Config{}).Render()}
	}
	return out
}

// profileConfig is one profiling configuration a request may ask for.
// Index 0 is the facade default (s=16, n=4). The served mix also asks for
// a second one, so that (program, options) keys differ in more than the
// program: 64 slots at the default tree height, the one non-default
// configuration a shipped example (examples/collections) passes to
// ProfileContext.
type profileConfig struct {
	Slots, TreeHeight int
}

var profileConfigs = []profileConfig{{}, {Slots: 64}}

func (c profileConfig) options() []lowutil.ProfileOption {
	return []lowutil.ProfileOption{lowutil.WithSlots(c.Slots), lowutil.WithTreeHeight(c.TreeHeight)}
}

// ref holds the direct facade outputs for one program, recorded during
// set-up. Every timed request is checked against it.
type ref struct {
	input
	Instrs int
	Steps  int64
	Graph  lowutil.GraphStats
	Audit  string // digest of StaticAudit with the default options
	Vet    string // digest of the Vet findings

	// Per profileConfigs entry; only index 0 unless all configs were asked
	// for.
	Report  []string // digests of Report(DefaultTop)
	Top     [][]lowutil.Finding
	Profile []*lowutil.Profile // only when kept: they weigh on the heap
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// vetDigest is a short hash of vet finding messages, in order.
func vetDigest(msgs []string) string {
	h := sha256.New()
	for _, m := range msgs {
		fmt.Fprintln(h, m)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// buildRefs compiles every input and records its facade outputs: the
// uninstrumented run, the profile and report under the first nconfigs
// profiling configurations, the static audit and the vet findings. With
// keep it also retains the profiles themselves.
func buildRefs(ctx context.Context, ins []input, nconfigs int, keep bool) ([]*ref, error) {
	out := make([]*ref, len(ins))
	for i, in := range ins {
		p, err := lowutil.Compile(in.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		r := &ref{input: in, Instrs: p.NumInstructions()}
		run, err := p.RunContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		r.Steps = run.Steps
		for c := 0; c < nconfigs; c++ {
			pr, err := p.ProfileContext(ctx, profileConfigs[c].options()...)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.Name, err)
			}
			if pr.Steps() != r.Steps {
				return nil, fmt.Errorf("%s: profiled steps %d != run steps %d", in.Name, pr.Steps(), r.Steps)
			}
			if c == 0 {
				r.Graph = pr.GraphStats()
			}
			r.Report = append(r.Report, digest(pr.Report(lowutil.DefaultTop)))
			r.Top = append(r.Top, pr.TopStructures(lowutil.DefaultTop))
			if keep {
				r.Profile = append(r.Profile, pr)
			}
		}
		audit, err := p.StaticAudit(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		r.Audit = digest(audit)
		var msgs []string
		for _, f := range p.Vet() {
			msgs = append(msgs, f.Message)
		}
		r.Vet = vetDigest(msgs)
		out[i] = r
	}
	return out, nil
}

// order returns the request order of one pass over n programs: a
// permutation drawn from seed and the pass number alone.
func order(seed uint64, pass, n int) []int {
	return rand.New(rand.NewPCG(seed, saltOrder+uint64(pass))).Perm(n)
}

// sequenceDigest is a short hash of the programs a closed loop over refs
// sends in its first passes, in order, so two runs with one seed can be
// shown to send the same requests.
func sequenceDigest(refs []*ref, seed uint64, passes int) string {
	srcs := make([]string, len(refs))
	for i, r := range refs {
		srcs[i] = digest(r.Src)
	}
	h := sha256.New()
	for pass := 0; pass < passes; pass++ {
		for _, i := range order(seed, pass, len(refs)) {
			fmt.Fprintln(h, refs[i].Name, srcs[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
