#!/usr/bin/env bash
# Build and run the repository benchmark (see benchmark/README.md).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of output is its JSON result
#   benchmark/run.sh [--workload W] [--seed N] [--runs N] [--seconds S]
#                    [--traced] [--smoke] [--save DIR]
#       every workload (or W), each run in its own process, seeds N, N+1, ...;
#       prints "workload metric value unit" lines and writes
#       benchmark/build/results/results.json; --save DIR also appends each
#       JSON result to DIR/<workload>.jsonl for --compare
#   benchmark/run.sh --probe-capacity [--workload W] [--seed N]
#       saturation capacity of the service workloads (jobs/s)
#   benchmark/run.sh --compare A/ B/
#   benchmark/run.sh --selftest
#
# Exits non-zero when the build fails or any run finds a wrong output.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT" || exit 2
BUILD=benchmark/build
OUT="$BUILD/results"

build() {
  cmake -S benchmark -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2 &&
    cmake --build "$BUILD" -j 4 --target "$@" >&2
}

WORKLOADS="fig-sweep svc-small svc-skew-kv svc-durable-cluster"
workload="" seed=1 seconds="" trace=0 runs="" smoke="" save="" probe=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --runs) runs="$2"; shift 2 ;;
    --smoke) smoke="--smoke"; shift ;;
    --save) save="$2"; shift 2 ;;
    --probe-capacity) probe="--probe-capacity"; shift ;;
    --compare)
      [ $# -eq 3 ] || { echo "usage: run.sh --compare A/ B/" >&2; exit 2; }
      build dsmsort_benchmark || exit 2
      exec "$BUILD/dsmsort_benchmark" --compare "$2" "$3" \
        --spec BENCHMARK.json ;;
    --selftest)
      build benchmark_selftest || exit 2
      exec "$BUILD/benchmark_selftest" ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$seconds" ]; then
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
fi

build dsmsort_benchmark || exit 2
mkdir -p "$OUT" || exit 2

# A single run: the JSON result of dsmsort_benchmark is the last line and
# its exit code is ours. It runs as a child, not through exec, so
# the build's compiler processes never count in its reaped-children RSS.
if [ -n "$workload" ] && [ -z "$runs" ] && [ -z "$probe" ]; then
  "$BUILD/dsmsort_benchmark" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" $smoke --out "$OUT"
  exit $?
fi

[ -n "$workload" ] && WORKLOADS="$workload"
[ -n "$save" ] && { mkdir -p "$save" || exit 2; }
status=0
results="{"
sep=""
for w in $WORKLOADS; do
  [ -n "$probe" ] && [ "$w" = fig-sweep ] && continue
  lines=""
  for ((i = 0; i < ${runs:-1}; i++)); do
    s=$((seed + i))
    log="$OUT/$w-seed$s-trace$trace.log"
    "$BUILD/dsmsort_benchmark" --workload "$w" --seed "$s" \
      --seconds "$seconds" --trace "$trace" $smoke $probe --out "$OUT" \
      > "$log"
    rc=$?
    grep -v '^{' "$log"
    json="$(tail -n 1 "$log")"
    if [ $rc -ne 0 ] || [ "${json:0:1}" != "{" ]; then
      echo "run.sh: $w seed $s FAILED (exit $rc)" >&2
      status=1
    fi
    if [ "${json:0:1}" = "{" ]; then
      lines="$lines${lines:+, }$json"
      [ -n "$save" ] && echo "$json" >> "$save/$w.jsonl"
    fi
  done
  results="$results$sep\"$w\": [$lines]"
  sep=", "
done
echo "$results}" > "$OUT/results.json"
echo "results: $OUT/results.json"
exit $status
