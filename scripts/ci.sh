#!/bin/sh
# Minimal CI gate: static analysis first (vet + the project's own analyzer
# suite, cmd/mummi-lint — per-package and interprocedural, with the
# stale-suppression audit and a wall-clock budget), then build, the full
# test suite, and the race-detector pass over the whole module. Mirrors the
# Makefile targets; stdlib toolchain only, no external dependencies.
set -eux

go vet ./...
go run ./cmd/mummi-lint -unused-suppressions -budget 60s ./...
go build ./...
go test ./...
go test -race ./...

# Fuzz smoke: the RESP request parser reads bytes from any client that
# connects to a kvstore server; a short run over the committed seed corpus
# (internal/kvstore/testdata/fuzz/) must find no panic and no round-trip
# mismatch.
go test -run '^$' -fuzz '^FuzzReadCommand$' -fuzztime 10s ./internal/kvstore

# Bench-diff gate: the committed perf-trajectory reports (BENCH_*.json)
# must stay coherent — deterministic replay metrics identical between the
# pre- and post-optimization reports, timing/alloc metrics within the
# generous regression threshold. The reports are committed artifacts, so
# this is deterministic in CI (no benchmark is re-run here).
go run ./scripts/benchdiff BENCH_baseline.json BENCH_optimized.json
go run ./scripts/benchdiff BENCH_baseline_full.json BENCH_optimized_full.json

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# kvstore feedback-path gate: re-run both kvstore-bench modes with the
# committed workload shape (100µs modeled interconnect RTT, defaults
# otherwise), check each fresh report against its committed counterpart
# (workload metrics exact, timing within the regression threshold), and
# enforce the ≥10x pipelined speedup floor on the committed pair and on
# the fresh pair.
go run ./cmd/kvstore-bench -mode baseline -rtt 100us -out "$tmpdir/kvb-baseline.json"
go run ./cmd/kvstore-bench -mode pipelined -rtt 100us -out "$tmpdir/kvb-optimized.json"
go run ./scripts/benchdiff BENCH_kvstore_baseline.json "$tmpdir/kvb-baseline.json"
go run ./scripts/benchdiff BENCH_kvstore_optimized.json "$tmpdir/kvb-optimized.json"
go run ./cmd/kvstore-bench -mode compare \
	-compare BENCH_kvstore_baseline.json,BENCH_kvstore_optimized.json -min-speedup 10
go run ./cmd/kvstore-bench -mode compare \
	-compare "$tmpdir/kvb-baseline.json,$tmpdir/kvb-optimized.json" -min-speedup 10

# Observability smoke: the example campaign must emit a loadable Chrome
# trace and a metrics snapshot with nonzero counters for all four workflow
# tasks (tracecheck fails on empty or unparsable artifacts), and its stdout
# must carry the §5 report: Table 1, the simulation counts and Fig. 5.
go run ./cmd/mummi-sim campaign -scale 0.02 \
	-trace "$tmpdir/trace.json" -metrics "$tmpdir/metrics.json" >"$tmpdir/campaign.out"
go run ./scripts/tracecheck "$tmpdir/trace.json" "$tmpdir/metrics.json"
grep -q '^#nodes  wall-time  #runs  node hours' "$tmpdir/campaign.out"
grep -q '^quantity  *measured  *paper' "$tmpdir/campaign.out"
grep -q '^# Fig 5: GPU occupancy' "$tmpdir/campaign.out"

# Chaos smoke: a campaign with every fault class at aggressive rates must
# complete, and two same-seed runs must be byte-identical — the fault
# ledger on stdout and the full metrics snapshot and trace event stream.
# The plan runs once per crash policy: the single WM (cold restart) and a
# three-instance fleet (crash adoption); both go through the same
# allocation loop.
chaosplan='store-transient-error:0.10;store-latency-spike:0.05;store-permanent-error:0.01;node-crash:8/day;job-hang:12/day;wm-crash:2/day'
for wms in 1 3; do
	for i in 1 2; do
		go run ./cmd/mummi-sim campaign -scale 0.02 -seed 7 -faults "$chaosplan" -wm-instances "$wms" \
			-trace "$tmpdir/chaos$wms-$i-trace.json" -metrics "$tmpdir/chaos$wms-$i-metrics.json" >"$tmpdir/chaos$wms-$i.out"
		# Drop the wall-clock line ("replayed in Nms") and the artifact-path
		# lines ("-> .../chaosW-N-trace.json") before comparing.
		grep -v -e 'replayed in' -e ' -> ' "$tmpdir/chaos$wms-$i.out" >"$tmpdir/chaos$wms-$i.cmp"
	done
	diff "$tmpdir/chaos$wms-1.cmp" "$tmpdir/chaos$wms-2.cmp"
	diff "$tmpdir/chaos$wms-1-metrics.json" "$tmpdir/chaos$wms-2-metrics.json"
	diff "$tmpdir/chaos$wms-1-trace.json" "$tmpdir/chaos$wms-2-trace.json"
done
# The single-WM run must actually restart (seed 7 gives 4 restarts), and the
# fleet run must actually adopt.
grep -Eq ' [1-9][0-9]* wm restarts' "$tmpdir/chaos1-1.out"
grep -Eq ' [1-9][0-9]* adoptions' "$tmpdir/chaos3-1.out"

# Scenario-matrix gate: replay every committed workflow instance under
# scenarios/ and diff it against its committed per-scenario ledger —
# deterministic metrics must match exactly, timing metrics stay within the
# regression threshold (see docs/SCENARIOS.md).
go run ./scripts/matrix

# Matrix determinism smoke: replay four fast scenarios twice with timing
# metrics omitted; the fresh ledger directories must be byte-identical.
# wm-fleet-chaos is in the set so the distributed-WM crash/adoption
# schedule is held to the same same-seed byte-identity bar as the rest.
fast='laptop-smoke,mini-mummi-two-scale,chaos-store-flaky,wm-fleet-chaos'
go run ./scripts/matrix -only "$fast" -outdir "$tmpdir/matrix1" -no-timing
go run ./scripts/matrix -only "$fast" -outdir "$tmpdir/matrix2" -no-timing
diff -r "$tmpdir/matrix1" "$tmpdir/matrix2"

# Generated-sweep gate: the committed scenarios/generated/ sweep is one
# fixed Gen(seed=42, n=3) instance set. Regenerate it from scratch and
# byte-diff against the committed trace files (Gen must stay deterministic
# and schema-stable), then replay the sweep against its committed ledgers
# like any other scenario directory.
go run ./cmd/mummi-sim trace gen -seed 42 -n 3 -outdir "$tmpdir/gen"
diff -r -x 'BENCH_*' "$tmpdir/gen" scenarios/generated
go run ./scripts/matrix -scenarios scenarios/generated

# Trace round-trip smoke: export a campaign as a workflow instance, import
# and canonically re-export it, and require byte identity end to end
# through the CLI surface.
go run ./cmd/mummi-sim trace export -scale 0.02 -seed 7 -name ci-roundtrip \
	-out "$tmpdir/ci-roundtrip.trace.json"
go run ./cmd/mummi-sim trace import -in "$tmpdir/ci-roundtrip.trace.json" \
	-out "$tmpdir/ci-roundtrip2.trace.json"
diff "$tmpdir/ci-roundtrip.trace.json" "$tmpdir/ci-roundtrip2.trace.json"
