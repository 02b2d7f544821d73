#!/usr/bin/env bash
# Chaos smoke: drive the CLI through the failure paths a real deployment
# hits — injected link faults on a spawned worker fleet, deadlines below
# solve time, admission-control overload, and a SIGTERM graceful drain —
# and check the typed-error and byte-parity contracts hold under each.
#
# Gates:
#   1. `shard --faults` (stall + garbage, then a SIGKILLed worker) still
#      produces bytes identical to the single-node `portfolio` run, and
#      --print-metrics shows the stall and garbage really fired (nonzero
#      timeouts and retries).
#   2. `map --deadline-ms 1` on an SA run exits 1 with
#      `error[deadline-exceeded]`; a generous deadline exits 0; a 100 ms
#      deadline on a 128-core tight-bandwidth nmap-split run (minutes
#      unbounded) errors the same way in under 1 s; a 10 ms deadline on a
#      64-core pbb run and a 50 ms deadline on a 1,000,000-cycle simulated
#      evaluation error within 50 ms of the deadline.
#   3. A serve batch over --max-pending gets a typed "overloaded" error
#      line, and SIGTERM makes the daemon drain and exit 0.
#
# Usage: scripts/chaos_smoke.sh [path/to/nocmap_cli] [work-dir]
set -euo pipefail

CLI=${1:-./build/nocmap_cli}
OUT=${2:-chaos-smoke}
mkdir -p "$OUT"

APPS="vopd pip"
TOPOLOGIES="mesh,torus"
failures=0

fail() {
    echo "chaos smoke: $*" >&2
    failures=1
}

# ---------------------------------------------------- 1. fault-plan parity
# shellcheck disable=SC2086 # APPS is a deliberate word list
"$CLI" portfolio $APPS --topologies "$TOPOLOGIES" \
    --json "$OUT/single-node.json" --json-stable > "$OUT/single-node.log"

# One shard run gives each link two exchanges: #0 the hello, #1 its task.
# Worker 0 stalls its task (a timeout), worker 1 garbles its task reply;
# each reconnects, re-hellos and retries the task. The merged document
# must not change by a byte.
# shellcheck disable=SC2086
"$CLI" shard $APPS --topologies "$TOPOLOGIES" \
    --spawn-workers 2 \
    --faults '0:1:stall:200,1:1:garbage' --io-timeout-ms 4000 --print-metrics \
    --json "$OUT/faulted-retry.json" > "$OUT/faulted-retry.log"

# Sum of one shard counter over all its series in the --print-metrics line.
shard_counter() {
    python3 - "$1" "$OUT/faulted-retry.log" <<'PY'
import json, sys
name, log = sys.argv[1], sys.argv[2]
for line in open(log):
    if line.startswith('{"families"'):
        for fam in json.loads(line)["families"]:
            if fam["name"] == name:
                print(int(sum(s["value"] for s in fam["series"])))
                sys.exit(0)
print(0)
PY
}
for counter in timeouts retries; do
    fired=$(shard_counter "nocmap_shard_${counter}_total")
    if [ "$fired" -gt 0 ]; then
        echo "chaos faults: nocmap_shard_${counter}_total=$fired"
    else
        fail "nocmap_shard_${counter}_total is $fired: the injected faults did not fire"
    fi
done

# A worker SIGKILLed during its task: the survivor absorbs the reassigned
# scenarios.
# shellcheck disable=SC2086
"$CLI" shard $APPS --topologies "$TOPOLOGIES" \
    --spawn-workers 2 \
    --faults '0:1:kill' \
    --json "$OUT/faulted-kill.json" > "$OUT/faulted-kill.log"

for variant in retry kill; do
    if cmp -s "$OUT/single-node.json" "$OUT/faulted-$variant.json"; then
        echo "chaos $variant: byte-identical to the single-node run"
    else
        diff "$OUT/single-node.json" "$OUT/faulted-$variant.json" || true
        fail "faulted $variant run diverged from single-node bytes"
    fi
done

# ---------------------------------------------------- 2. deadline contract
if "$CLI" map vopd --algo sa --deadline-ms 1 > "$OUT/deadline-tight.log" 2>&1; then
    fail "1 ms deadline on an SA run should exit non-zero"
elif grep -q 'error\[deadline-exceeded\]' "$OUT/deadline-tight.log"; then
    echo "chaos deadline: 1 ms SA run exits 1 with the typed error"
else
    fail "deadline exit was non-zero but the typed error line is missing"
fi

# A run far longer than its deadline must exit non-zero with the typed
# error within `limit_ms` of its start.
#   expect_deadline <label> <limit_ms> <cli arguments...>
expect_deadline() {
    local label=$1 limit_ms=$2
    shift 2
    local log="$OUT/deadline-${label//[^a-z0-9]/-}.log"
    local start_ns elapsed_ms
    start_ns=$(date +%s%N)
    if "$CLI" "$@" > "$log" 2>&1; then
        fail "$label: a deadline below the solve time should exit non-zero"
        return
    fi
    elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
    if ! grep -q 'error\[deadline-exceeded\]' "$log"; then
        fail "$label: exit was non-zero but the typed error line is missing"
    elif (( elapsed_ms < limit_ms )); then
        echo "chaos deadline: $label errors after ${elapsed_ms} ms (limit ${limit_ms} ms)"
    else
        fail "$label took ${elapsed_ms} ms to error (limit ${limit_ms} ms)"
    fi
}

# The split sweep polls the deadline before every per-candidate MCF solve,
# so the overshoot is one solve, not one row of about 130 solves.
expect_deadline "100 ms nmap-split" 1000 \
    map synth:nodes=128,edges=230,seed=2 --algo nmap-split --bw 400 --deadline-ms 100
# PBB polls before every node expansion (about 2 s unbounded) and the
# simulated evaluation every 1024 simulated cycles (a 1,000,000-cycle
# window, over 5 s unbounded): the error arrives within max(50 ms, 10% of
# the budget) of the deadline.
expect_deadline "10 ms pbb" $((10 + 50)) \
    map synth:nodes=64,edges=110,seed=1 --algo pbb --deadline-ms 10
expect_deadline "50 ms eval=simulated" $((50 + 50)) \
    map synth:nodes=128,edges=230,seed=1 --algo nmap --deadline-ms 50 \
    --eval-opt eval=simulated --eval-opt sim_cycles=1000000

if "$CLI" map vopd --deadline-ms 600000 > "$OUT/deadline-generous.log" 2>&1; then
    echo "chaos deadline: generous deadline changes nothing"
else
    fail "a 600 s deadline must not fail a sub-second solve"
fi

# ----------------------------------------- 3. overload + SIGTERM drain
# Three stdin map requests against --max-pending 2: the pipelined batch
# overflows admission control, so exactly the surplus request is refused
# with the typed "overloaded" code. SIGTERM then drains the daemon: a
# clean exit 0, never a killed-by-signal status.
{
    printf '%s\n' \
        '{"id":"m1","method":"map","apps":["pip"],"topologies":"mesh"}' \
        '{"id":"m2","method":"map","apps":["pip"],"topologies":"mesh"}' \
        '{"id":"m3","method":"map","apps":["pip"],"topologies":"mesh"}'
    sleep 2 # keep stdin open so SIGTERM (not EOF) ends the session
} | "$CLI" serve --max-pending 2 > "$OUT/serve-overload.jsonl" 2>"$OUT/serve-overload.log" &
SERVE_PID=$!
sleep 1
kill -TERM "$SERVE_PID" 2>/dev/null || true
if wait "$SERVE_PID"; then
    echo "chaos drain: SIGTERM produced a clean exit 0"
else
    fail "serve exited non-zero after SIGTERM (expected graceful drain)"
fi

if grep -q '"code": *"overloaded"' "$OUT/serve-overload.jsonl"; then
    echo "chaos overload: surplus request refused with the typed code"
else
    fail "no typed overloaded error in the serve batch output"
fi
ok_count=$(grep -c '"status": *"ok"' "$OUT/serve-overload.jsonl" || true)
if [ "$ok_count" -ge 2 ]; then
    echo "chaos overload: admitted requests still completed ($ok_count ok)"
else
    fail "expected >= 2 ok responses alongside the overload, saw $ok_count"
fi

[ "$failures" -eq 0 ] && echo "chaos smoke OK (artifacts in $OUT/)"
exit "$failures"
