// Command perfbench is the repository's end-to-end benchmark. It drives
// the lowutil facade and the lowutil server (through the client SDK) with
// one of three workloads generated from a seed, checks every output
// against the facade's direct result, and prints its metrics; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload profile-large --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --describe
//	bash perfbench/run.sh --compare DIR_A DIR_B
//
// --trace 0 measures the end-to-end metrics with tracing off, their times
// on the process CPU clock (clock.go says why); --trace 1 runs the traced
// layer-by-layer pass and the traced served mix instead and prints the
// per-layer metrics. --compare reads two sets of runs, each a directory
// of <workload>.jsonl files holding result lines (perfbench/runs.sh
// writes them), and judges every end-to-end metric against the bounds in
// BENCHMARK.json. Every mode reads the workload and metric names
// and units from BENCHMARK.json in the working directory.
//
// Seed 1 is the default; seed 7 is held out for checking claims made
// while tuning on other seeds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"lowutil"
)

const (
	defaultSeed  = 1
	heldOutSeed  = 7
	setupReps    = 3   // set-ups per run; setup_s is the median of their CPU times
	digestPasses = 64  // passes of a closed loop covered by its request digest
	tracedLayers = 0.6 // share of a traced run spent in layer passes
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "profile-large or serve-mixed")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced layer-by-layer run and reports per-layer metrics")
	spans := fs.String("spans", ".bench_out", "directory the traced run writes its spans to")
	compare := fs.Bool("compare", false, "compare two sets of runs: --compare DIR_A DIR_B")
	describe := fs.Bool("describe", false, "print the workloads and metrics with their rationale")
	bench := fs.String("benchmark", "BENCHMARK.json", "benchmark definition: workloads, metrics, units and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, err := readBenchmark(*bench)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	switch {
	case *describe:
		printDescription(stdout, b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two run directories")
			return 2
		}
		return compareRuns(stdout, b, fs.Arg(0), fs.Arg(1))
	}
	if !b.hasWorkload(*workload) || workloadInputs(*workload, *seed) == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ctx := context.Background()
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = tracedRun(ctx, stdout, b.PerLayer, *workload, *seed, dur, filepath.Join(*spans, "spans-"+*workload+".jsonl"))
	} else {
		res, err = endToEndRun(ctx, stdout, b.EndToEnd, *workload, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	for _, e := range res.errs {
		fmt.Fprintf(stderr, "perfbench: failed: %s\n", e)
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs []string
	defs []metricDef
}

// set records every metric of defs from values. A missing or non-finite
// value, or a value that defs do not name, is an error, and the caller
// marks the run incorrect.
func (r *result) set(defs []metricDef, values map[string]float64) error {
	r.defs = defs
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value (%v)", d.Name, v)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return nil
}

func (r *result) print(w io.Writer) error {
	for _, d := range r.defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "# %-30s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// window measures the timed part of a run: wall and process CPU time, Go
// heap bytes allocated, and the peak in-use heap. The heap is sampled
// every 2 ms; its peak is the median over the window's whole seconds of
// the highest sample in each. The single highest sample of a run depends
// on where the garbage collector's cycles happened to fall: on a loop
// over small programs its quartile spread over runs reached a third of
// its median. The median over seconds is steadier.
type window struct {
	start      stamp
	m0         runtime.MemStats
	stop, done chan struct{}
	peaks      []float64 // per second; written by sample until done is closed
}

func openWindow() *window {
	w := &window{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&w.m0)
	go w.sample()
	w.start = now()
	return w
}

func (w *window) sample() {
	defer close(w.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var peak uint64 // of the current second
	next := time.Now().Add(time.Second)
	for {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
		if !time.Now().Before(next) {
			w.peaks = append(w.peaks, float64(peak))
			peak, next = 0, next.Add(time.Second)
		}
		select {
		case <-w.stop:
			if len(w.peaks) == 0 { // a window shorter than a second
				w.peaks = append(w.peaks, float64(peak))
			}
			return
		case <-tick.C:
		}
	}
}

// close ends the window and returns its length on both clocks, the bytes
// allocated in it and the peak in-use heap in bytes.
func (w *window) close() (elapsed, uint64, float64) {
	e := w.start.since()
	close(w.stop)
	<-w.done
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return e, m1.TotalAlloc - w.m0.TotalAlloc, median(w.peaks)
}

// requests is what a closed loop observed in its window.
type requests struct {
	cpu       []float64 // process CPU ms per request, +Inf for a failed one
	wall      []float64 // wall ms per request, +Inf for a failed one
	attempted int64
	failed    int64 // failed or mismatched requests
	retries   int64 // client-side retries (429s included)
	errs      []string
}

// failedRequest is what record is given for a request that failed.
var failedRequest = elapsed{wall: math.Inf(1), cpu: math.Inf(1)}

// record notes one request that took e.
func (q *requests) record(e elapsed) {
	q.cpu = append(q.cpu, e.cpu)
	q.wall = append(q.wall, e.wall)
}

// rates returns the completed requests per second of span, and the p50
// and p90 of per-request times, for one clock's samples.
func rates(lat []float64, span float64) (rps, p50, p90 float64) {
	ok := 0
	for _, ms := range lat {
		if !math.IsInf(ms, 1) {
			ok++
		}
	}
	return float64(ok) / (span / 1e3), percentile(lat, 50), percentile(lat, 90)
}

func (q *requests) fail(err error) {
	q.failed++
	if len(q.errs) < 5 {
		q.errs = append(q.errs, err.Error())
	}
}

// endToEndRun sets the workload up setupReps times, keeping the last, then
// measures it with tracing off. Every time metric is read on the process
// CPU clock (see clock.go); the wall-clock figures are printed beside them.
func endToEndRun(ctx context.Context, out io.Writer, defs []metricDef, workload string, seed uint64, dur time.Duration) (*result, error) {
	var setups, wallSetups []float64
	var st *state
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := now()
		var err error
		if st, err = setUp(ctx, workload, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e := t0.since()
		setups = append(setups, e.cpu/1e3)
		wallSetups = append(wallSetups, e.wall/1e3)
	}
	defer st.close()

	var before, after map[string]float64
	if st.svc != nil {
		var err error
		if before, err = fetchMetrics(ctx, st.svc.url); err != nil {
			return nil, err
		}
	}
	w := openWindow()
	q := st.measure(ctx, time.Now().Add(dur))
	span, alloc, peak := w.close()
	if st.svc != nil {
		var err error
		if after, err = fetchMetrics(ctx, st.svc.url); err != nil {
			return nil, err
		}
	}
	overhead := st.overhead(ctx, q)
	if err := st.close(); err != nil {
		return nil, err
	}

	rps, p50, p90 := rates(q.cpu, span.cpu)
	wallRPS, wallP50, wallP90 := rates(q.wall, span.wall)
	fmt.Fprintf(out, "# %s seed %d: %d requests in %.2fs wall, %.2fs process CPU (%s)\n",
		workload, seed, q.attempted, span.wall/1e3, span.cpu/1e3, st.loop)
	fmt.Fprintf(out, "# %d requests beyond each p90\n", tailCount(len(q.cpu), 90))
	fmt.Fprintf(out, "# wall clock, not a metric (steal on a shared host moves it): %.1f req/s, p50 %.3f ms, p90 %.3f ms, set-up %.3f s\n",
		wallRPS, wallP50, wallP90, median(wallSetups))
	fmt.Fprintf(out, "# error_rate %.6g (%d failed or mismatched, %d client retries, of %d attempted)\n",
		float64(q.failed+q.retries)/float64(max(q.attempted, 1)), q.failed, q.retries, q.attempted)
	fmt.Fprintf(out, "# %s\n", st.requestDigest())
	if before != nil {
		// The served mix's hit shares follow from its assumed traffic
		// (see mix.go); a claim about serve-mixed should name them.
		m := serverLayerMetrics(before, after)
		fmt.Fprintf(out, "# served hit shares: profile memo %.3f, session %.3f, job results %.3f; %.0f session evictions\n",
			m["server.profile_hit_ratio"], m["server.session_hit_ratio"], m["jobs.result_hit_ratio"], m["server.session_evictions"])
	}
	res := &result{Attempted: q.attempted, Failed: q.failed + q.retries, errs: q.errs}
	res.Correct = res.Failed == 0 && q.attempted > 0
	err := res.set(defs, map[string]float64{
		"setup_s":          median(setups),
		"req_per_cpu_s":    rps,
		"req_cpu_p50_ms":   p50,
		"req_cpu_p90_ms":   p90,
		"overhead_x":       overhead,
		"alloc_mb_per_req": float64(alloc) / 1e6 / float64(max(q.attempted, 1)),
		"peak_heap_mb":     peak / 1e6,
	})
	if err != nil {
		res.Correct = false
		res.errs = append(res.errs, err.Error())
	}
	return res, nil
}

// state is one set-up workload, ready to measure.
type state struct {
	workload string
	seed     uint64
	refs     []*ref
	loop     string // how the closed loop is driven, for the summary

	// profile-large only: the overhead of each complete pass, and the
	// per-request ratios of the pass the deadline cut.
	perPass, partial []float64

	// serve-mixed only
	svc   *service
	mixer *mixRunner
	mixes [][]op
}

// setUp generates the workload's inputs from seed, records the facade's
// reference outputs and, for serve-mixed, starts and warms up the server.
func setUp(ctx context.Context, workload string, seed uint64) (*state, error) {
	st := &state{workload: workload, seed: seed}
	ins := workloadInputs(workload, seed)
	nconfigs := 1
	if workload == onServe {
		nconfigs = len(profileConfigs)
	}
	var err error
	if st.refs, err = buildRefs(ctx, ins, nconfigs, false); err != nil {
		return nil, err
	}
	switch workload {
	case onProfile:
		st.loop = "1 client, closed loop, Compile+ProfileContext+Report at scale 8"
	case onServe:
		st.loop = fmt.Sprintf("%d SDK client(s), closed loop, served mix", mixClients)
		if st.svc, err = startService(); err != nil {
			return nil, err
		}
		st.mixer = &mixRunner{url: st.svc.url, refs: st.refs}
		if err := st.mixer.warmUp(ctx); err != nil {
			st.close()
			return nil, err
		}
		st.mixes = make([][]op, mixClients)
		for c := range st.mixes {
			st.mixes[c] = buildMix(seed, c, len(st.refs))
		}
	}
	return st, nil
}

// requestDigest identifies the requests the run sends.
func (st *state) requestDigest() string {
	if st.workload == onServe {
		return fmt.Sprintf("mix digest %s (each client sends a prefix of its %d-operation sequence)",
			mixDigest(st.mixes), mixLength)
	}
	return fmt.Sprintf("request digest %s (programs sent in passes 0-%d)",
		sequenceDigest(st.refs, st.seed, digestPasses), digestPasses-1)
}

// close stops the server, if any; it is safe to call twice.
func (st *state) close() error {
	if st.svc == nil {
		return nil
	}
	return st.svc.stop()
}

// measure runs the workload's closed loop until deadline. For
// profile-large it also records, per complete pass, the geomean over
// programs of profile-plus-report time over RunContext time.
func (st *state) measure(ctx context.Context, deadline time.Time) *requests {
	if st.workload == onProfile {
		return st.profileLoop(ctx, deadline)
	}
	return &st.mixer.run(ctx, st.mixes, deadline).requests
}

func (st *state) profileLoop(ctx context.Context, deadline time.Time) *requests {
	q := &requests{}
	for pass := 0; ; pass++ {
		var ratios []float64
		for _, i := range order(st.seed, pass, len(st.refs)) {
			if !time.Now().Before(deadline) {
				st.partial = ratios
				return q
			}
			ratio, e, err := profileRequest(ctx, st.refs[i])
			q.attempted++
			if err != nil {
				q.fail(fmt.Errorf("%s: %w", st.refs[i].Name, err))
				e = failedRequest
			} else {
				ratios = append(ratios, ratio)
			}
			q.record(e)
		}
		st.perPass = append(st.perPass, geomean(ratios))
	}
}

// profileRequest is one profile-large request: Compile, ProfileContext
// with the defaults, Report(DefaultTop), timed and checked; then an
// untimed-for-latency RunContext of the same program. It returns the
// profile-plus-report CPU time over the run's CPU time, and the request's
// time from Compile to the end of Report.
func profileRequest(ctx context.Context, r *ref) (float64, elapsed, error) {
	t0 := now()
	p, err := lowutil.Compile(r.Src)
	if err != nil {
		return 0, elapsed{}, err
	}
	t1 := now()
	pr, err := p.ProfileContext(ctx)
	if err != nil {
		return 0, elapsed{}, err
	}
	text := pr.Report(lowutil.DefaultTop)
	t2 := now()
	run, err := p.RunContext(ctx)
	if err != nil {
		return 0, elapsed{}, err
	}
	t3 := now()
	// The checks come after both timings, so neither holds the
	// benchmark's own hashing.
	if pr.Steps() != r.Steps {
		return 0, elapsed{}, fmt.Errorf("profiled %d steps, want %d", pr.Steps(), r.Steps)
	}
	if err := checkDigest("report", digest(text), r.Report[0]); err != nil {
		return 0, elapsed{}, err
	}
	if run.Steps != r.Steps {
		return 0, elapsed{}, fmt.Errorf("ran %d steps, want %d", run.Steps, r.Steps)
	}
	return t1.to(t2).cpu / t2.to(t3).cpu, t0.to(t2), nil
}

// overheadReps is how many passes the overhead measurement of
// serve-mixed makes over its programs.
const overheadReps = 3

// overhead returns overhead_x: Table 1's O as users run it, the geomean
// over programs of facade profile-plus-report time over RunContext time,
// both measured in the same pass on the process CPU clock, as the median
// over passes. profile-large measures it inside its timed loop.
// serve-mixed does not profile through the facade in its loop, but every
// run must report every end-to-end metric, so it measures it over its own
// programs after the window, in overheadReps passes. Failures count into
// q.
func (st *state) overhead(ctx context.Context, q *requests) float64 {
	if st.workload == onProfile {
		if len(st.perPass) == 0 {
			return geomean(st.partial)
		}
		return median(st.perPass)
	}
	var perPass []float64
	for pass := 0; pass < overheadReps; pass++ {
		var ratios []float64
		for _, i := range order(st.seed, pass, len(st.refs)) {
			ratio, _, err := profileRequest(ctx, st.refs[i])
			if err != nil {
				q.fail(fmt.Errorf("overhead pass: %s: %w", st.refs[i].Name, err))
				continue
			}
			ratios = append(ratios, ratio)
		}
		perPass = append(perPass, geomean(ratios))
	}
	return median(perPass)
}
