#!/bin/sh
# Pre-PR gate: formatting, vet, build, tests. Run via `make check` or
# directly. Fails fast with the first offending step.
set -e
cd "$(dirname "$0")/.."

unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
# A second, named vet pass for the two analyzers whose findings have bitten
# this codebase before (copied sync.Mutex values, code after panic/return):
# running them alone makes a failure name the analyzer instead of drowning
# it in the full-suite output.
go vet -copylocks -unreachable ./...
go build ./...
# -shuffle=on randomizes test execution order within each package, keeping
# hidden inter-test state dependencies from taking root.
go test -shuffle=on ./...
# The benchmark module (perfbench/, its own go.mod) imports the facade and
# internal packages (costben, profiler, depgraph); `go test ./...` skips it,
# so vet and test it here to catch an API removal that would break it.
(cd perfbench && go vet ./... && go test -count=1 .)
# Wire-format and content-address gate, run by name so a drift names
# itself: the SDK acceptance batch, the /v2 error-envelope tables, the
# job-vs-synchronous byte identity, the spec hash's field coverage, the
# SDK-vs-server wire keys and the canonical-form sharing of equivalent
# requests.
go test ./client ./internal/server ./internal/jobs -run 'Acceptance|Envelope|LegacyField|Synchronous|Hash|Wire|Equivalent' -count=1
# Public-API pin: the exported surface of the root package must match the
# checked-in golden (scripts/apisurface.golden).
sh scripts/apisurface.sh
# Static-analysis gates, run explicitly so a failure names the gate: the
# vet lint suite over all 18 workloads against its golden files, and the
# static-vs-dynamic Gcost containment harness (-short subset — the full
# 18-workload × {CHA, RTA} sweep already ran inside `go test ./...`).
make lint
go test ./internal/interproc -run TestSoundnessAllWorkloads -short -count=1
# Rank-correlation regression gate: the frequency-weighted static bounds
# must keep matching the recorded precision baseline
# (internal/evalharness/testdata/precision.golden) and beating the
# unweighted bounds on mean Spearman rho.
go test ./internal/evalharness -run TestPrecisionRankCorrelation -short -count=1
# Static-audit gates. Soundness runs the full 18-workload sweep (non-short:
# every dynamically observed escape must be within the static verdict);
# the golden gate pins the ranked audit reports; the precision gate pins
# the audit-vs-dynamic Spearman rows and enforces the >= +0.70 mean floor.
# Regenerate audit goldens after an intended change with
# `make audit-goldens`.
go test ./internal/escape -run TestEscapeSoundnessAllWorkloads -count=1
go test ./internal/escape -run TestAuditGoldenWorkloads -count=1
go test ./internal/evalharness -run TestAuditPrecisionRankCorrelation -short -count=1
# Dynamic-profile golden gate: every workload's report, two-hop top-10,
# stats line and saved-profile digest must match testdata/profile/.
# Regenerate after an intended change with `make profile-goldens`.
go test . -run TestProfileGoldenWorkloads -count=1
# Short differential-fuzzing budget: a small deterministic batch through
# every engine-pair invariant (see DESIGN.md §14). The long soak is
# `make fuzz`.
go run ./cmd/lowutil fuzz -seed 1 -n 50
# The analysis pipeline is parallel; -short keeps the race pass fast by
# trimming the all-workload differential sweeps to a subset.
go test -race -short -shuffle=on ./...
# Smoke-run the dispatch benchmark (one iteration): catches handler-table
# regressions that only manifest under the benchmark harness, without
# paying for a timed run.
go test -run=NONE -bench=Dispatch -benchtime=1x .
# Perf-trajectory report: compares the two newest BENCH_*.json. Report-only
# here; `make bench` runs the same comparison as a hard gate.
sh scripts/benchdiff.sh -report
echo "check: OK"
