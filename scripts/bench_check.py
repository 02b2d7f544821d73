#!/usr/bin/env python3
"""Bench-regression gate: fresh BENCH_*.json vs the committed baselines.

For each bench file named on the command line, the committed baseline is
read from git (`git show HEAD:<name>`) — the benches overwrite the working
tree copy first, so the working tree is NOT the baseline — and the fresh
run is read from --fresh-dir (default: build). Throughput metrics gate:

    fail  when a metric regresses by more than 25%,
    warn  when it regresses by more than 10%.

Gated metrics per bench:
    ablation_mcf        rows keyed (workload, engine): warm_evals_per_sec
                        for exact rows, cold_evals_per_sec for approx
                        rows (the approx engine has no warm mode)
    shard_scaling       rows keyed workers: grids_per_sec; speedup_vs_1
                        additionally gated only when BOTH sides ran on
                        >= 4 cores (a 1-core host cannot scale workers)
    service_throughput  achieved_rps; client_p99_ms is warn-only (latency
                        is noisy on shared CI hosts)
    sim_eval            rows keyed workload: evals_per_sec; packets and
                        p99_latency_cycles must match the baseline exactly
                        (the simulator is deterministic for a fixed seed)

host_cores is printed for both sides; when the fresh host is smaller than
the baseline host, throughput gates for that bench are skipped with an
explicit message (less hardware is not a code regression).

Usage: bench_check.py [--fresh-dir DIR] BENCH_mcf.json BENCH_shard.json ...
Exits 1 when any gate fails.
"""

import argparse
import json
import pathlib
import subprocess
import sys

FAIL_DROP = 0.25
WARN_DROP = 0.10

failures = []
warnings = []


def report(bench, metric, base, fresh, warn_only=False, lower_is_better=False):
    """One metric comparison; records a failure/warning on regression."""
    if base is None or fresh is None or base <= 0:
        print(f"  {bench} {metric}: baseline missing, gate skipped")
        return
    drop = (base - fresh) / base
    if lower_is_better:
        drop = (fresh - base) / base
    arrow = f"{base:g} -> {fresh:g}"
    if drop > FAIL_DROP and not warn_only:
        failures.append(f"{bench} {metric}: {arrow} ({drop:+.1%})")
        print(f"  {bench} {metric}: {arrow} FAIL ({drop:+.1%} worse)")
    elif drop > (FAIL_DROP if warn_only else WARN_DROP):
        warnings.append(f"{bench} {metric}: {arrow} ({drop:+.1%})")
        print(f"  {bench} {metric}: {arrow} WARN ({drop:+.1%} worse)")
    else:
        print(f"  {bench} {metric}: {arrow} ok ({-drop:+.1%})")


def load_baseline(name):
    try:
        text = subprocess.run(["git", "show", f"HEAD:{name}"],
                              capture_output=True, text=True, check=True).stdout
        return json.loads(text)
    except (subprocess.CalledProcessError, json.JSONDecodeError) as exc:
        print(f"  no committed baseline for {name} ({exc.__class__.__name__}); "
              f"gate skipped")
        return None


def cores_of(doc):
    return int(doc.get("host_cores", 0)) if doc else 0


def check_mcf(base, fresh):
    base_rows = {(r["workload"], r["engine"]): r for r in base.get("rows", [])}
    for row in fresh.get("rows", []):
        key = (row["workload"], row["engine"])
        label = f"{key[0]}/{key[1]}"
        baseline = base_rows.get(key)
        metric = ("cold_evals_per_sec" if row["engine"] == "approx"
                  else "warm_evals_per_sec")
        report("ablation_mcf", f"{label} {metric}",
               baseline and baseline.get(metric), row.get(metric))


def check_shard(base, fresh):
    base_rows = {r["workers"]: r for r in base.get("rows", [])}
    for row in fresh.get("rows", []):
        workers = row["workers"]
        baseline = base_rows.get(workers)
        report("shard_scaling", f"{workers}w grids_per_sec",
               baseline and baseline.get("grids_per_sec"),
               row.get("grids_per_sec"))
    if cores_of(base) >= 4 and cores_of(fresh) >= 4:
        for row in fresh.get("rows", []):
            baseline = base_rows.get(row["workers"])
            report("shard_scaling", f"{row['workers']}w speedup_vs_1",
                   baseline and baseline.get("speedup_vs_1"),
                   row.get("speedup_vs_1"))
    else:
        print(f"  shard_scaling speedup gate skipped: needs >= 4 cores on "
              f"both sides (baseline {cores_of(base)}, fresh {cores_of(fresh)}); "
              f"a 1-core host runs in-process workers serially and cannot scale")


def check_service(base, fresh):
    report("service_throughput", "achieved_rps",
           base.get("achieved_rps"), fresh.get("achieved_rps"))
    report("service_throughput", "client_p99_ms",
           base.get("client_p99_ms"), fresh.get("client_p99_ms"),
           warn_only=True, lower_is_better=True)
    if not fresh.get("count_match", False):
        failures.append("service_throughput: count_match is false "
                        "(server/client request accounting disagrees)")
        print("  service_throughput count_match: FAIL")


def check_sim(base, fresh):
    base_rows = {r["workload"]: r for r in base.get("rows", [])}
    for row in fresh.get("rows", []):
        workload = row["workload"]
        baseline = base_rows.get(workload)
        report("sim_eval", f"{workload} evals_per_sec",
               baseline and baseline.get("evals_per_sec"),
               row.get("evals_per_sec"))
        if baseline is None:
            continue
        # Determinism is part of the contract: for a fixed seed and window
        # the simulated packet count and p99 latency are exact, so any
        # difference is a behaviour change, not noise.
        for exact in ("packets", "p99_latency_cycles"):
            if baseline.get(exact) != row.get(exact):
                failures.append(
                    f"sim_eval {workload} {exact}: baseline "
                    f"{baseline.get(exact)} != fresh {row.get(exact)} "
                    f"(simulated metrics must be deterministic)")
                print(f"  sim_eval {workload} {exact}: "
                      f"{baseline.get(exact)} != {row.get(exact)} FAIL")
            else:
                print(f"  sim_eval {workload} {exact}: "
                      f"{row.get(exact)} exact-match ok")


CHECKS = {
    "ablation_mcf": check_mcf,
    "shard_scaling": check_shard,
    "service_throughput": check_service,
    "sim_eval": check_sim,
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--fresh-dir", default="build")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    for name in args.files:
        print(f"{name}:")
        fresh_path = pathlib.Path(args.fresh_dir) / name
        try:
            fresh = json.loads(fresh_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{name}: fresh run unreadable ({exc})")
            print(f"  fresh copy {fresh_path}: unreadable — FAIL")
            continue
        base = load_baseline(name)
        if base is None:
            continue
        print(f"  host_cores: baseline {cores_of(base) or 'unrecorded'}, "
              f"fresh {cores_of(fresh) or 'unrecorded'}")
        check = CHECKS.get(fresh.get("bench"))
        if check is None:
            failures.append(f"{name}: unknown bench kind {fresh.get('bench')!r}")
            continue
        if cores_of(base) > cores_of(fresh) > 0:
            print(f"  throughput gates skipped: baseline ran on "
                  f"{cores_of(base)} cores, this host has {cores_of(fresh)} "
                  f"(smaller hardware is not a code regression)")
            continue
        check(base, fresh)

    if warnings:
        print(f"bench_check: {len(warnings)} warning(s)")
    if failures:
        for failure in failures:
            print(f"bench_check: FAIL {failure}", file=sys.stderr)
        return 1
    print("bench_check: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
