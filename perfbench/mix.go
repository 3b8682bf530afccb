package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
)

// The served mix. Each of the clients works through its own pre-generated
// operation sequence, derived from the seed and the client number alone;
// a run sends a prefix of each (wrapping around if a run outlasts it), so
// mixDigest identifies exactly what any run with that seed sends.
//
// No recorded traffic exists for the lowutil server, so the shape of the
// mix rests on the assumptions named below, each with its reason. The
// memo and session hit shares a run prints follow from them; a claim
// about serve-mixed should name the shares it relies on.

const (
	// mixClients callers, each waiting for its reply. With one request
	// in flight, the process CPU time that passes during a request (the
	// clock of the end-to-end times, see clock.go) is that request's
	// cost; with two, each request would also be charged the other's.
	mixClients = 1
	mixLength  = 50000 // operations generated per client

	// Assumption: half of the keys an operation uses repeat one of the
	// client's recent keys; the other half are drawn afresh and mostly
	// miss. No traffic gives a hit rate, and an even split gives the
	// memo-hit path and the miss path (which runs interp) about equal
	// weight. The profile memo share a run prints is lower, about a
	// third, because a repeat misses when its key was last used by a
	// compile or an audit, or when its session was evicted meanwhile.
	mixRepeat = 0.5
	// Assumption: a repeat draws from the client's last 8 fresh keys, an
	// eighth of the server's default session LRU (64 sessions), so a
	// repeat usually finds its session still cached; a much wider window
	// would turn repeats into misses after eviction and blur the two
	// paths.
	mixRecent = 8
	// Assumption: a batch holds 2 jobs, a small batch that fills the job
	// queue's default worker count (GOMAXPROCS, 2 on the machine above)
	// once.
	jobsPerOp = 2
)

// Operation kinds.
const (
	opCompile = "compile"
	opProfile = "profile"
	opReport  = "report"
	opAudit   = "audit"
	opJobs    = "jobs"
)

// mixKinds are drawn with equal chances. Assumption: nothing in the
// repository records how callers divide their requests among endpoints,
// so none is weighted above another.
var mixKinds = []string{opCompile, opProfile, opReport, opAudit, opJobs}

// jobKinds are the kinds of job a batch may hold. They follow the
// repository's own batch callers: `lowutil batch` submits report jobs and
// the client SDK's acceptance batch profile jobs, each batch all of one
// kind and at the default options.
var jobKinds = []string{opReport, opProfile}

// target is one (program, profiling configuration) key.
type target struct {
	Prog, Config int
}

// op is one caller operation. profile, report and audit compile their
// program first, as an SDK caller must to get a session; jobs submits a
// small batch of JobKind jobs at the default options and waits for it on
// the event stream.
type op struct {
	Kind string
	target
	JobKind string   // kind jobs
	Jobs    []target // kind jobs; Config is always 0
	Key     string   // kind jobs: the batch idempotency key
}

// buildMix generates client c's operation sequence over nprogs programs.
func buildMix(seed uint64, c, nprogs int) []op {
	r := rand.New(rand.NewPCG(seed, saltMix+uint64(c)))
	var recent []target
	pick := func() target {
		if len(recent) > 0 && r.Float64() < mixRepeat {
			return recent[r.IntN(len(recent))]
		}
		t := target{Prog: r.IntN(nprogs), Config: r.IntN(len(profileConfigs))}
		recent = append(recent, t)
		if len(recent) > mixRecent {
			recent = recent[1:]
		}
		return t
	}
	out := make([]op, mixLength)
	for i := range out {
		o := op{Kind: mixKinds[r.IntN(len(mixKinds))]}
		switch o.Kind {
		case opJobs:
			o.Key = fmt.Sprintf("s%d-c%d-o%d", seed, c, i)
			o.JobKind = jobKinds[r.IntN(len(jobKinds))]
			for j := 0; j < jobsPerOp; j++ {
				t := pick()
				t.Config = 0
				o.Jobs = append(o.Jobs, t)
			}
		case opCompile, opAudit:
			o.target = pick()
			o.Config = 0 // options do not apply
		default:
			o.target = pick()
		}
		out[i] = o
	}
	return out
}

// mixDigest is a short hash of the client sequences.
func mixDigest(mixes [][]op) string {
	h := sha256.New()
	for c, ops := range mixes {
		for _, o := range ops {
			fmt.Fprintf(h, "%d %s %d %d %s %s", c, o.Kind, o.Prog, o.Config, o.JobKind, o.Key)
			for _, j := range o.Jobs {
				fmt.Fprintf(h, " %d", j.Prog)
			}
			fmt.Fprintln(h)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
