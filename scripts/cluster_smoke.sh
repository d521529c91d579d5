#!/usr/bin/env sh
# Cluster smoke test: a real master process serving a UNIX socket with the
# heartbeat health protocol armed, five real dsmsort_workerd processes
# attached to it, and three kinds of trouble while the trace is in flight:
#
#   * smoke-1 is SIGKILLed          — a loud crash; re-dispatch.
#   * smoke-2 is SIGSTOPped         — a gray failure: process alive, socket
#                                     open, nothing moves. The heartbeat
#                                     lattice must hedge or write it off.
#   * smoke-liar runs with --lie    — reports bit-flipped input fingerprints;
#                                     end-to-end integrity must catch it and
#                                     quarantine exactly that worker.
#
# The liar connects first and alone: it is the only worker the master can
# lease, so it takes two leases, earns two integrity strikes and is
# quarantined before any honest worker starts. Its catch is therefore
# deterministic, not a race against the end of the trace.
#
# Asserts the run still completes every job, the replay selfcheck stays
# byte-identical, the liar was caught exactly as configured (2 integrity
# violations, 1 quarantined worker), and the honest survivors retire
# cleanly. Registered as the RUN_SERIAL ctest bench.cluster_smoke.
#
# Usage: scripts/cluster_smoke.sh [build-dir]
#   build-dir  where the binaries live (default: build)
set -eu

BUILD="${1:-build}"
MASTER_BIN="$BUILD/bench/service_bench"
WORKERD_BIN="$BUILD/src/dsmsort_workerd"
SOCK="$(mktemp -u /tmp/dsmsort_smoke.XXXXXX.sock)"
OUT="$(mktemp /tmp/dsmsort_smoke.XXXXXX.json)"
LOG="$(mktemp /tmp/dsmsort_smoke.XXXXXX.log)"
NJOBS=32

for bin in "$MASTER_BIN" "$WORKERD_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "cluster_smoke: binary not found at $bin" >&2
    echo "build first: cmake --build $BUILD --target service_bench dsmsort_workerd" >&2
    exit 2
  fi
done

MASTER_PID=""
W1_PID=""
W2_PID=""
W3_PID=""
W4_PID=""
LIAR_PID=""
cleanup() {
  # SIGCONT first: SIGKILL is honoured by a stopped process, but be tidy.
  for pid in $W2_PID; do
    kill -CONT "$pid" 2>/dev/null || true
  done
  for pid in $MASTER_PID $W1_PID $W2_PID $W3_PID $W4_PID; do
    kill -9 "$pid" 2>/dev/null || true
  done
  # The liar runs under timeout, which forwards SIGTERM (not SIGKILL).
  for pid in $LIAR_PID; do
    kill "$pid" 2>/dev/null || true
  done
  rm -f "$SOCK" "$OUT" "$LOG"
}
trap cleanup EXIT

# Master: serve the socket, run a quick trace on whoever connects, with
# heartbeats every 50 ms (suspect after 4 missed beats, written off after
# 8 — generous enough that an honest-but-descheduled worker is safe). It
# blocks until at least one worker registers, so starting it first is
# race-free. Sizes are chosen so the run takes a couple of seconds — long
# enough that the kill and the stop below land while jobs are in flight.
"$MASTER_BIN" --scenario throughput --quick --njobs "$NJOBS" --sizes 256K \
  --jobs 3 --cluster-serve "$SOCK" --heartbeat-ms 50 --suspect-after 4 \
  --out "$OUT" >"$LOG" 2>&1 &
MASTER_PID=$!

# The liar first, alone (workerd retries the connect until the listener is
# up). It completes every protocol step flawlessly and sorts honestly —
# only its result reports are corrupted, so only end-to-end integrity can
# catch it. Every lease goes to it until its second strike quarantines it
# and the master closes its channel, which ends the process; only then do
# the honest workers start. timeout bounds the wait: exit 124 means the
# liar was never quarantined.
timeout 60 "$WORKERD_BIN" --connect "$SOCK" --label smoke-liar --lie &
LIAR_PID=$!
LIAR_RC=0
wait "$LIAR_PID" || LIAR_RC=$?
LIAR_PID=""
if [ "$LIAR_RC" -eq 124 ]; then
  echo "cluster_smoke: FAIL — the liar was never quarantined; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "cluster_smoke: liar quarantined before the honest workers started"

"$WORKERD_BIN" --connect "$SOCK" --label smoke-1 & W1_PID=$!
"$WORKERD_BIN" --connect "$SOCK" --label smoke-2 & W2_PID=$!
"$WORKERD_BIN" --connect "$SOCK" --label smoke-3 & W3_PID=$!
"$WORKERD_BIN" --connect "$SOCK" --label smoke-4 & W4_PID=$!

# Let the run get going, then SIGKILL one worker and SIGSTOP another
# mid-job. (If the host is fast enough that the trace already finished,
# both degrade to clean-retire checks — the assertions below hold either
# way.)
sleep 0.3
if kill -9 "$W1_PID" 2>/dev/null; then
  echo "cluster_smoke: killed worker smoke-1 (pid $W1_PID)"
else
  echo "cluster_smoke: worker smoke-1 already gone (run finished early?)"
fi
wait "$W1_PID" 2>/dev/null || true
W1_PID=""
if kill -STOP "$W2_PID" 2>/dev/null; then
  echo "cluster_smoke: stopped worker smoke-2 (pid $W2_PID)"
else
  echo "cluster_smoke: worker smoke-2 already gone (run finished early?)"
fi

if ! wait "$MASTER_PID"; then
  echo "cluster_smoke: FAIL — master exited non-zero; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
MASTER_PID=""

# Every job completed despite the kill, the stall, and the liar...
if ! grep -q "live: $NJOBS/$NJOBS jobs" "$LOG"; then
  echo "cluster_smoke: FAIL — lost jobs; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
# ...the deterministic replay selfcheck still holds...
if ! grep -q "byte-identical" "$LOG"; then
  echo "cluster_smoke: FAIL — replay selfcheck missing; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
# ...and the liar was caught end-to-end: exactly its two strikes charged
# and exactly it quarantined (the killed and the stopped worker die, they
# are not struck).
if ! grep -q ' 2 integrity violation(s), 1 quarantined' "$LOG"; then
  echo "cluster_smoke: FAIL — the liar was not struck twice and" \
    "quarantined; log:" >&2
  cat "$LOG" >&2
  exit 1
fi
grep "cluster:" "$LOG" || true

# The stopped worker was written off by the health protocol; wake it so it
# can notice its closed channel and exit. Its exit status is not part of
# the contract (it died from the master's point of view mid-task).
kill -CONT "$W2_PID" 2>/dev/null || true
wait "$W2_PID" 2>/dev/null || true
W2_PID=""
# The honest surviving workers retire cleanly when the master shuts the
# pool down.
for pid in $W3_PID $W4_PID; do
  if ! wait "$pid"; then
    echo "cluster_smoke: FAIL — worker $pid exited non-zero" >&2
    exit 1
  fi
done
W3_PID=""; W4_PID=""

echo "cluster_smoke: PASS ($NJOBS jobs, 5 workers: 1 killed, 1 stalled, 1 liar quarantined)"
