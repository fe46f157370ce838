#!/usr/bin/env bash
# bench_smoke.sh — run the engine perf-smoke benchmark trio and write the
# results as JSON (ns/op, B/op, allocs/op per benchmark), one data point
# of the repo's benchmark trajectory. Usage:
#
#   ./scripts/bench_smoke.sh [out.json] [baseline.json]
#
# After writing out.json the script diffs it against baseline.json
# (default: the committed BENCH_pr4.json reference) and prints the
# per-benchmark ns/op and allocs/op deltas. The deltas themselves are
# REPORT-ONLY — they never fail the run — so the perf trajectory is
# visible in every CI log without shared-runner noise gating merges.
# A measured benchmark MISSING from the baseline does fail the run:
# a silent skip would hide a new benchmark from the trajectory forever.
#
# CI runs this with -benchtime=100x: fast enough for every push, stable
# enough to catch order-of-magnitude regressions in the scheduler and
# simulator hot paths.
set -euo pipefail
out="${1:-bench-smoke.json}"
baseline="${2:-BENCH_pr4.json}"

go test -run '^$' \
  -bench 'BenchmarkSchedulerDense256$|BenchmarkSchedulerSparse256$|BenchmarkSchedulerStar1024$|BenchmarkSimulatorThroughput$|BenchmarkBroadcastTrials$|BenchmarkSweepTelemetry$' \
  -benchmem -benchtime=100x . |
  awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
    /^Benchmark/ {
      name = $1
      sub(/^Benchmark/, "", name)
      sub(/-[0-9]+$/, "", name)
      # Measurements are keyed by their unit token, not column position:
      # benchmarks with custom metrics (runs/s, trials/s) interleave extra
      # value/unit pairs between ns/op and the -benchmem columns.
      ns = by = al = "null"
      for (i = 3; i < NF; i += 2) {
        if ($(i + 1) == "ns/op") ns = $i
        else if ($(i + 1) == "B/op") by = $i
        else if ($(i + 1) == "allocs/op") al = $i
      }
      rows[++n] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                          name, ns, by, al)
    }
    /^cpu:/ { cpu = substr($0, 6); gsub(/^[ \t]+|[ \t]+$/, "", cpu) }
    END {
      if (n == 0) { print "bench_smoke: no benchmark output parsed" > "/dev/stderr"; exit 1 }
      print "{"
      printf "  \"date\": \"%s\",\n", date
      printf "  \"cpu\": \"%s\",\n", cpu
      printf "  \"benchtime\": \"100x\",\n"
      print "  \"benchmarks\": ["
      for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
      print "  ]"
      print "}"
    }' >"$out"

echo "bench_smoke: wrote $out" >&2
cat "$out"

# Report-only trajectory diff against the committed baseline. Within a
# baseline file, later arrays win (BENCH_prN.json lists its own
# "benchmarks" after any historical "baseline_main" block), so the diff
# compares against that PR's measured point.
if [[ -f "$baseline" ]]; then
  echo
  echo "bench_smoke: delta vs $baseline (report-only; shared-runner noise ~10%)"
  awk '
    function fieldnum(line, key,   r) {
      if (match(line, "\"" key "\": [0-9.]+")) {
        r = substr(line, RSTART, RLENGTH)
        sub(/.*: /, "", r)
        return r + 0
      }
      return -1
    }
    /"name"/ {
      if (match($0, /"name": "[^"]+"/)) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        ns = fieldnum($0, "ns_per_op")
        al = fieldnum($0, "allocs_per_op")
        if (ns < 0) next # summary rows (e.g. vs_baseline) carry no measurements
        if (FILENAME == ARGV[1]) { bns[name] = ns; bal[name] = al }
        else {
          cns[name] = ns; cal[name] = al
          if (!(name in seen)) { seen[name] = 1; order[++m] = name }
        }
      }
    }
    END {
      printf "  %-28s %14s %14s %9s %9s\n", "benchmark", "base ns/op", "now ns/op", "ns", "allocs"
      missing = 0
      for (i = 1; i <= m; i++) {
        name = order[i]
        if (!(name in bns)) {
          printf "  %-28s %14s %14d %9s %9s\n", name, "MISSING", cns[name], "n/a", "n/a"
          missing++
          continue
        }
        dns = bns[name] > 0 ? sprintf("%+.1f%%", 100 * (cns[name] - bns[name]) / bns[name]) : "n/a"
        dal = bal[name] > 0 ? sprintf("%+.1f%%", 100 * (cal[name] - bal[name]) / bal[name]) : (cal[name] == 0 ? "+0.0%" : "n/a")
        printf "  %-28s %14d %14d %9s %9s\n", name, bns[name], cns[name], dns, dal
      }
      if (missing > 0) {
        printf "bench_smoke: %d measured benchmark(s) missing from baseline — add them to the baseline file\n", missing > "/dev/stderr"
        exit 1
      }
    }' "$baseline" "$out"
else
  echo "bench_smoke: baseline $baseline not found; skipping delta report" >&2
fi
