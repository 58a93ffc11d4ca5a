#!/usr/bin/env bash
# bench.sh — run the perf-tracked benchmark set and gate/record results.
#
#   scripts/bench.sh run [count]       # run benchmarks, print + save output
#   scripts/bench.sh check [count]     # run, then gate allocs/op + B/op
#                                      # against BENCH_PR24.json (wall-clock is
#                                      # machine-dependent, so it is NOT gated
#                                      # against the committed baseline)
#   scripts/bench.sh record [count]    # run count>=3 times, rewrite
#                                      # BENCH_PR24.json from the per-benchmark
#                                      # MINIMUM (noise only ever adds time)
#   scripts/bench.sh compare OLD NEW   # diff two saved bench outputs
#                                      # (10% ns/op + allocs/op thresholds,
#                                      # plus a geomean summary row)
#   scripts/bench.sh profile [count]   # CPU-profile BenchmarkSuiteFig11Serial
#                                      # (count iterations, default 3) and
#                                      # print flat% summed per package, then
#                                      # the cumulative share of the GC's mark
#                                      # workers and of malloc
#
# The tracked set is the micro-benchmarks (event engine, IRMB, Zipf, the
# page-migration data-cache flush, a GPU's TLB shootdown, a page-table walk,
# one migration through the driver's FSM, one fig11 cell's machine assembly)
# plus the end-to-end throughput benchmarks (BenchmarkSuiteFig11Serial,
# BenchmarkSuiteFig11Parallel, where cells run concurrently and so the
# garbage collector's cost shows, and BenchmarkSuiteFig11Warmup, the
# two-phase warmup run); see BENCH_PR24.json for the committed baseline and
# DESIGN.md "Engine internals & profiling" for how these numbers are used.
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN='^(BenchmarkEventEngine|BenchmarkIRMBInsertLookup|BenchmarkZipfSampling|BenchmarkDataPageFlush|BenchmarkTLBShootdown|BenchmarkPageTableWalk|BenchmarkDriverMigration|BenchmarkNewSystem|BenchmarkSimulatePageRank|BenchmarkSuiteFig11Serial|BenchmarkSuiteFig11Parallel|BenchmarkSuiteFig11Warmup)$'
BASELINE=BENCH_PR24.json
OUT=${BENCH_OUT:-/tmp/idyll_bench.txt}
PROFILE=${BENCH_PROFILE:-/tmp/idyll_cpu.pprof}

run_bench() {
    local count=${1:-5}
    # -count gives benchdiff repeated runs to collapse (median when
    # comparing, minimum when recording), which is what makes the wall-clock
    # numbers usable on shared machines.
    go test -run '^$' -bench "$PATTERN" -benchmem -count "$count" . | tee "$OUT"
}

case "${1:-run}" in
run)
    run_bench "${2:-5}"
    echo "saved to $OUT"
    ;;
check)
    run_bench "${2:-5}"
    echo
    echo "== gate: allocs/op + B/op vs $BASELINE =="
    go run ./cmd/benchdiff -time -1 -bytes 0.10 -require "$BASELINE" "$OUT"
    ;;
record)
    # A baseline must come from repeated runs: a single sample can freeze a
    # scheduling hiccup into the committed numbers. Collapsing >= 3 runs to
    # the per-benchmark minimum keeps that noise out of baselines:
    # interference only ever adds time, so the minimum is the cleanest
    # estimate a shared machine can give.
    count=${2:-5}
    if [ "$count" -lt 3 ]; then
        echo "record: need count >= 3 (got $count) — fewer runs bake scheduler noise into the baseline" >&2
        exit 2
    fi
    run_bench "$count"
    go run ./cmd/benchdiff -min \
        -note "recorded by scripts/bench.sh record: per-benchmark minimum of $count runs. Allocation counts are deterministic and CI-gated; ns/op is machine-specific context only — judge wall-clock with same-machine back-to-back runs (benchdiff -fail-over), never against this file." \
        -emit "$BASELINE" "$OUT"
    ;;
compare)
    [ $# -eq 3 ] || { echo "usage: $0 compare OLD NEW" >&2; exit 2; }
    go run ./cmd/benchdiff "$2" "$3"
    ;;
profile)
    # Layer attribution for the ledger: which package's own code the suite's
    # CPU time is spent in. pprof's flat% is per function; the awk pass
    # strips receivers, generic shapes and closures from each symbol and
    # sums per import path (runtime and other std packages included), so a
    # wall-clock delta can be traced to the layer that moved. The garbage
    # collector's cost is spread over runtime functions, so two cumulative
    # shares follow the list: the background mark workers (GC) and malloc
    # (allocation, including the assists it is charged).
    bin=${PROFILE%.pprof}.test
    go test -run '^$' -bench '^BenchmarkSuiteFig11Serial$' -benchtime "${2:-3}x" \
        -cpuprofile "$PROFILE" -o "$bin" . >&2
    top=$(go tool pprof -top -nodecount=1000000 "$bin" "$PROFILE" 2>/dev/null)
    awk '
        $2 ~ /%$/ && $1 != "flat" {
            name = $6
            for (i = 7; i <= NF; i++) name = name " " $i
            sub(/[[(].*/, "", name)           # receiver or generic shape
            slash = match(name, /\/[^\/]*$/)   # last path element
            rest = slash ? substr(name, slash) : name
            dot = index(rest, ".")
            pkg = dot ? substr(name, 1, (slash ? slash - 1 : 0) + dot - 1) : name
            pct[pkg] += $2
        }
        END { for (p in pct) printf "%6.2f%%  %s\n", pct[p], p }' <<<"$top" | sort -rn
    echo "-- cumulative --"
    awk '$6 == "runtime.gcBgMarkWorker" || $6 == "runtime.mallocgc" { printf "%6s  %s\n", $5, $6 }' <<<"$top"
    echo "profile: $PROFILE (binary $bin)" >&2
    ;;
*)
    echo "usage: $0 {run|check|record|compare|profile} ..." >&2
    exit 2
    ;;
esac
