// Package fuzzgen is the randomized correctness backstop for every engine
// pair in the repository: a seeded, deterministic generator of well-formed
// MJ programs plus a differential harness that checks, on each generated
// program, the invariants the fixed 18-workload suites prove — interpreter
// output/step/alloc parity between the handler-table and switch interpreter
// loops, Gcost and metric parity with the definition-level reference in
// package oracle, dynamic Gcost containment
// in the static interprocedural slice (CHA and RTA+ObjCtx), cost-benefit
// ranking preservation under the static prune, the SSA-vs-dense vet
// agreement relations, escape-analysis soundness, and byte-stable report
// re-emission.
//
// Generated programs are correct by construction: every loop is bounded,
// recursion carries an explicit decreasing depth parameter, the method call
// graph is otherwise acyclic by generation order, reference locals are
// initialized at declaration, reference-typed field loads are consumed only
// under a null guard, array indices are loop variables reduced modulo the
// array length, and division is only by positive constants. A generated
// program that fails to compile, crashes, or exceeds the step budget is
// itself reported as an invariant violation ("the generator's contract").
//
// When an invariant fails, the harness shrinks the program by greedy
// statement, method, and class deletion (plus block unwrapping), keeping
// each deletion only when the candidate still compiles and still fails the
// same invariant. The shrunk reproducer, its derived seed, and its index in
// the run are reported, so the failure replays deterministically with
// `lowutil fuzz -seed <root seed> -n <index+1>`.
//
// The checked-in corpus under corpus/ replays a spread of generated
// programs through the full harness in ordinary `go test`.
package fuzzgen

// rng is a splitmix64 PRNG. It is implemented here rather than borrowed
// from math/rand so that generated programs are reproducible from the seed
// alone, independent of Go library versions.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n). n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt returns a uniform int in [lo, hi] inclusive.
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// chance reports true with probability num/den.
func (r *rng) chance(num, den int) bool { return r.intn(den) < num }

// pick returns a uniform element of xs.
func pick[T any](r *rng, xs []T) T { return xs[r.intn(len(xs))] }

// deriveSeed mixes the root seed with a program index so each generated
// program has an independent, reproducible seed of its own.
func deriveSeed(root uint64, index int) uint64 {
	z := root ^ (uint64(index)+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 29)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 32)) * 0x94D049BB133111EB
	return z ^ (z >> 29)
}
