package main

import (
	"context"
	"fmt"
	"io"
	"time"
)

// tracedRun is the --trace 1 run of a workload: layer passes over its
// programs for tracedLayers of the time, then the served mix over the same
// programs for the rest, both under spans. It reports every per-layer
// metric. A layer pass whose counts or digests differ from the facade's
// fails the run.
func tracedRun(ctx context.Context, out io.Writer, defs []metricDef, workload string, seed uint64, dur time.Duration, spansPath string) (*result, error) {
	refs, err := buildRefs(ctx, workloadInputs(workload, seed), len(profileConfigs), true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	start := time.Now()
	layerEnd := start.Add(time.Duration(tracedLayers * float64(dur)))
	// An even number of passes, at least two: the facade path alternates
	// sides of the layers from pass to pass (see layerPass).
	var passes []*passTotals
	for pass := 0; pass%2 == 1 || pass == 0 || time.Now().Before(layerEnd); pass++ {
		p, err := layerPass(ctx, tr, refs, seed, pass)
		if err != nil {
			return nil, fmt.Errorf("layer pass %d: %w", pass, err)
		}
		if len(passes) > 0 {
			if err := sameCounts(passes[0], p); err != nil {
				return nil, fmt.Errorf("layer pass %d: %w", pass, err)
			}
		}
		passes = append(passes, p)
	}
	layerSpans := len(tr.spans)

	svc, err := startService()
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	mr := &mixRunner{url: svc.url, refs: refs, tr: tr}
	if err := mr.warmUp(ctx); err != nil {
		return nil, err
	}
	mixes := make([][]op, mixClients)
	for c := range mixes {
		mixes[c] = buildMix(seed, c, len(refs))
	}
	before, err := fetchMetrics(ctx, svc.url)
	if err != nil {
		return nil, err
	}
	// The mix gets the rest of the run, but at least a quarter of it when
	// slow layer passes overran their share.
	mixEnd := start.Add(dur)
	if least := time.Now().Add(dur / 4); mixEnd.Before(least) {
		mixEnd = least
	}
	ms := mr.run(ctx, mixes, mixEnd)
	after, err := fetchMetrics(ctx, svc.url)
	if err != nil {
		return nil, err
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}

	values := layerMetrics(passes)
	for k, v := range serverLayerMetrics(before, after) {
		values[k] = v
	}
	for _, ep := range []string{opCompile, opProfile, opReport, opAudit} {
		var lat []float64
		for _, c := range ms.calls {
			if c.Endpoint == ep {
				lat = append(lat, c.MS)
			}
		}
		values["server."+ep+"_p50_ms"] = median(lat)
	}
	values["server.envelope_ms"] = envelopeMS(ms.calls, refs)
	values["server.client_retries"] = float64(ms.retries)
	// Means, not medians: most jobs are answered from the result store or
	// the memo before the client's event stream connects, and the misses
	// are what a change to the queue or the runs would move.
	values["jobs.wait_ms"] = mean(ms.jobWait)
	values["jobs.run_ms"] = mean(ms.jobRun)

	fmt.Fprintf(out, "# %s seed %d traced: %d layer passes over %d programs; served mix %d requests (%d client(s)), mix digest %s\n",
		workload, seed, len(passes), len(refs), ms.attempted, mixClients, mixDigest(mixes))
	fmt.Fprintf(out, "# fidelity: every layer pass matched the facade's Gcost counts, steps and report, audit and vet digests\n")
	printSelfTimes(out, "layer passes", tr.spans[:layerSpans])
	printSelfTimes(out, "served mix", tr.spans[layerSpans:])
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "# spans written to %s\n", spansPath)

	res := &result{
		Attempted: int64(len(passes)*len(refs)) + ms.attempted,
		Failed:    ms.failed + ms.retries,
		errs:      ms.errs,
	}
	res.Correct = res.Failed == 0
	if err := res.set(defs, values); err != nil {
		res.Correct = false
		res.errs = append(res.errs, err.Error())
	}
	return res, nil
}

// sameCounts requires a pass's deterministic counts to equal the first
// pass's.
func sameCounts(a, b *passTotals) error {
	if a.steps != b.steps || a.approxKB != b.approxKB {
		return fmt.Errorf("%d steps and %d KB of Gcost, first pass %d and %d", b.steps, b.approxKB, a.steps, a.approxKB)
	}
	for k, v := range a.counts {
		if b.counts[k] != v {
			return fmt.Errorf("%s = %v, first pass %v", k, b.counts[k], v)
		}
	}
	return nil
}

// layerMetrics turns the layer passes into per-layer metrics: times are
// per program (per call for interproc, which the audit and vet paths each
// run once) and the median over passes; counts are totals over the
// population, equal in every pass.
func layerMetrics(passes []*passTotals) map[string]float64 {
	med := func(f func(p *passTotals) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	perProgram := func(span string) float64 {
		return med(func(p *passTotals) float64 { return p.ms[span] / float64(p.programs) })
	}
	first := passes[0]
	n := float64(first.programs)
	v := map[string]float64{
		"mjc.compile_ms":      perProgram("mjc"),
		"interp.run_ms":       perProgram("interp"),
		"interp.steps":        float64(first.steps),
		"interp.minstr_per_s": med(func(p *passTotals) float64 { return float64(p.steps) / p.ms["interp"] / 1e3 }),
		"interp.nop_tracer_x": med(func(p *passTotals) float64 { return p.ms["interp.nop"] / p.ms["interp"] }),

		"profiler.trace_ms":         perProgram("profiler"),
		"profiler.ns_per_step":      med(func(p *passTotals) float64 { return p.ms["profiler"] * 1e6 / float64(p.steps) }),
		"profiler.allocs_per_run":   med(func(p *passTotals) float64 { return float64(p.mallocs) / float64(p.programs) }),
		"profiler.alloc_kb_per_run": med(func(p *passTotals) float64 { return float64(p.alloc) / 1024 / float64(p.programs) }),
		"profiler.trackcr_x":        med(func(p *passTotals) float64 { return p.ms["profiler"] / p.ms["profiler.nocr"] }),

		"depgraph.avg_cr":    sum(first.avgCR) / n,
		"depgraph.approx_kb": float64(first.approxKB),
		"depgraph.freeze_ms": perProgram("depgraph.freeze"),

		"costben.rank_ms":              perProgram("costben"),
		"deadness.analyze_ms":          perProgram("deadness"),
		"staticanalysis.crosscheck_ms": perProgram("staticanalysis.crosscheck"),
		"lowutil.report_ms":            perProgram("lowutil.report"),

		"interproc.analyze_ms":  perProgram("interproc") / 2,
		"ssa.build_ms":          perProgram("ssa"),
		"escape.analyze_ms":     perProgram("escape"),
		"staticanalysis.vet_ms": perProgram("staticanalysis.vet"),
		"lowutil.audit_ms":      perProgram("lowutil.audit"),
	}
	var mirror, facade float64
	for _, p := range passes {
		mirror += p.mirrorMS
		facade += p.facadeMS
	}
	v["bench.trace_overhead_x"] = mirror / facade
	for _, k := range []string{
		"mjc.ir_instrs", "depgraph.nodes", "depgraph.dep_edges", "depgraph.ref_edges",
		"costben.sites", "lowutil.report_bytes", "interproc.pt_objects", "ssa.vals", "escape.sites",
		"staticanalysis.findings",
	} {
		v[k] = first.counts[k]
	}
	return v
}
