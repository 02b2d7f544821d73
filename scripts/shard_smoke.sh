#!/usr/bin/env bash
# Shard smoke: spawn two local serve workers and run the same 2-app x
# 2-topology portfolio grid twice — single-node `portfolio` and sharded —
# then diff the stable JSON documents. Byte identity is the shard
# determinism contract: the coordinator's scatter/merge must be invisible
# in the output.
#
# The shard run exercises the full stack: `--spawn-workers 2` forks two
# `serve --socket` subprocesses on ephemeral loopback ports, speaks the
# shard protocol verbs over TCP, and tears the fleet down afterwards.
#
# Usage: scripts/shard_smoke.sh [path/to/nocmap_cli] [work-dir]
set -euo pipefail

CLI=${1:-./build/nocmap_cli}
OUT=${2:-shard-smoke}
mkdir -p "$OUT"

APPS="vopd mpeg4"
TOPOLOGIES="mesh,torus"

# shellcheck disable=SC2086 # APPS is a deliberate word list
"$CLI" portfolio $APPS --topologies "$TOPOLOGIES" \
    --json "$OUT/single-node.json" --json-stable > "$OUT/single-node.log"

# shellcheck disable=SC2086
"$CLI" shard $APPS --topologies "$TOPOLOGIES" \
    --spawn-workers 2 \
    --json "$OUT/shard.json" > "$OUT/shard.log"

if cmp -s "$OUT/single-node.json" "$OUT/shard.json"; then
    echo "shard: byte-identical to the single-node run"
    echo "shard smoke OK (artifacts in $OUT/)"
else
    echo "shard: MISMATCH vs single-node bytes:"
    diff "$OUT/single-node.json" "$OUT/shard.json" || true
    exit 1
fi
