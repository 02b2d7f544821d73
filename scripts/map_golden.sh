#!/usr/bin/env bash
# Mapping golden smoke: byte-diff the stdout of `nocmap_cli map` (and one
# `bw` table) against the checked-in fixtures under tests/golden/map/, so a
# change to any mapper, to the router or to the report format cannot shift
# a placement, a cost or a load without the diff showing up in review.
#
# Covered: the paper apps vopd, mpeg4, pip and dsd under every
# non-exhaustive mapper on the ample mesh, `exhaustive` on pip and dsp, one
# bandwidth-constrained torus run, the split mappers under the exact
# per-swap MCF at tight bandwidth (mesh and torus), four `eval=simulated`
# runs (the simulator's packet statistics) and the `bw vopd` table.
# Every case must exit with its expected status: 0, or 1 for a run that
# ends infeasible (`map` still prints the best mapping it found, and that
# report is pinned). The script also checks that a non-finite --bw is a
# usage error (exit 2) for `map` and `shard`, and fails on a fixture no
# case names.
#
# Regenerate the fixtures intentionally with:
#     scripts/map_golden.sh ./build/nocmap_cli tests/golden/map --record
#
# Usage: scripts/map_golden.sh [path/to/nocmap_cli] [fixture-dir] [--record]
set -euo pipefail

CLI=${1:-./build/nocmap_cli}
FIXTURES=${2:-tests/golden/map}
RECORD=${3:-}

# "<fixture name>|<cli arguments>[|<expected exit status, default 0>]"
cases=()
for app in vopd mpeg4 pip dsd; do
    for algo in nmap nmap-split nmap-tm pmap gmap pbb sa; do
        cases+=("$app.$algo|map $app --algo $algo")
    done
done
cases+=("pip.exhaustive|map pip --algo exhaustive")
cases+=("dsp.exhaustive|map dsp --algo exhaustive")
cases+=("vopd.nmap.torus-bw600|map vopd --algo nmap --fabric torus --bw 600")
# Tight bandwidth with the exact per-swap MCF: the regime where the split
# sweep's feasible incumbent prunes candidates by their Eq.7 bound. The two
# nmap-tm runs that end infeasible exit 1 and are pinned all the same.
exact="--opt mcf_engine=exact"
cases+=("mpeg4.nmap-split.exact-bw500|map mpeg4 --algo nmap-split --bw 500 $exact")
cases+=("mpeg4.nmap-tm.exact-bw500|map mpeg4 --algo nmap-tm --bw 500 $exact|1")
cases+=("vopd.nmap-split.exact-bw400|map vopd --algo nmap-split --bw 400 $exact")
cases+=("vopd.nmap-tm.exact-bw400|map vopd --algo nmap-tm --bw 400 $exact")
cases+=("vopd.nmap-split.exact-bw350|map vopd --algo nmap-split --bw 350 $exact")
cases+=("vopd.nmap-tm.exact-bw350|map vopd --algo nmap-tm --bw 350 $exact|1")
cases+=("vopd.nmap-split.torus-exact-bw400|map vopd --algo nmap-split --fabric torus --bw 400 $exact")
# The cycle-accurate simulated evaluation: ample and tight single-path
# links (a fractional link rate), split flows and uniform injection.
sim="--eval-opt eval=simulated"
cases+=("vopd.nmap.sim|map vopd --algo nmap $sim")
cases+=("vopd.nmap.sim-bw600|map vopd --algo nmap --bw 600 $sim")
cases+=("vopd.nmap-split.sim-exact-bw400|map vopd --algo nmap-split --bw 400 $exact $sim")
cases+=("mpeg4.nmap-split.sim-uniform-bw500|map mpeg4 --algo nmap-split --bw 500 $sim --eval-opt injection=uniform")
cases+=("bw.vopd|bw vopd")

fail=0
names=()
for entry in "${cases[@]}"; do
    name=${entry%%|*}
    rest=${entry#*|}
    expected=0
    if [[ "$rest" == *"|"* ]]; then
        expected=${rest##*|}
        rest=${rest%|*}
    fi
    read -r -a argv <<<"$rest"
    names+=("$name")
    fixture="$FIXTURES/$name.txt"
    status=0
    out=$("$CLI" "${argv[@]}") || status=$?
    if [[ $status -ne $expected ]]; then
        echo "EXIT: '${argv[*]}' exited $status, expected $expected"
        fail=1
        continue
    fi
    if [[ "$RECORD" == "--record" ]]; then
        mkdir -p "$FIXTURES"
        printf '%s\n' "$out" >"$fixture"
        echo "$name: recorded"
    elif [[ ! -f "$fixture" ]]; then
        echo "MISSING: no fixture for '${argv[*]}' (expected $fixture)"
        fail=1
    elif printf '%s\n' "$out" | diff -u "$fixture" - >/dev/null; then
        echo "$name: output matches fixture"
    else
        echo "DRIFT: '${argv[*]}' differs from $fixture:"
        printf '%s\n' "$out" | diff -u "$fixture" - || true
        fail=1
    fi
done

# A non-finite link bandwidth is a usage error, never an unconstrained run
# or a malformed shard request.
usage_cases=(
    "map vopd --bw nan"
    "map vopd --bw inf"
    "shard vopd --spawn-workers 1 --topologies mesh --bw inf"
)
for args in "${usage_cases[@]}"; do
    read -r -a argv <<<"$args"
    status=0
    "$CLI" "${argv[@]}" >/dev/null 2>&1 || status=$?
    if [[ $status -eq 2 ]]; then
        echo "'$args': usage error (exit 2)"
    else
        echo "USAGE: '$args' exited $status, expected 2"
        fail=1
    fi
done

for fixture in "$FIXTURES"/*.txt; do
    name=$(basename "${fixture%.txt}")
    if ! printf '%s\n' "${names[@]}" | grep -qxF "$name"; then
        echo "STALE: fixture $fixture names no case"
        fail=1
    fi
done

exit $fail
