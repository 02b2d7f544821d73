#!/usr/bin/env python3
"""The repository's end-to-end benchmark: mapping and serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload split-allpaths --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Builds the perfbench package (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset, times set-up, runs one workload through the
perfbench binary and prints every metric by name with its unit, the
checker's verdict, a provenance line, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("split-allpaths", "mapping-suite", "serve-mixed")
# Set-up samples besides the measured run's own: half before the measured
# run and half after it, so that setup_s (their median) spans the host's
# state over the whole run rather than over one moment of it.
SETUP_REPEATS = 60
RUN_TIMEOUT_S = 170.0


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures (once) and builds the package; raises on failure."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def source_digest():
    """sha256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "examples", "nocmap_cli.cpp")]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            files += [os.path.join(dirpath, f) for f in filenames if not f.endswith(".pyc")]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        return "unknown (no git)"


def run_bench(argv, deadline):
    """Runs the perfbench binary; returns (ready_s, stdout lines). `ready_s` is the
    time from spawning it to its "ready" line: the set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            cwd=ROOT)
    ready_s = None
    lines = []
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("perfbench ran past its time limit")
            if not sel.select(timeout=remaining):
                continue
            line = proc.stdout.readline()
            if not line:
                break
            line = line.rstrip("\n")
            if line == "ready" and ready_s is None:
                ready_s = time.perf_counter() - start
                continue
            lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        sel.close()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"perfbench exited with code {code}")
    if ready_s is None:
        raise RuntimeError("perfbench never signalled the end of set-up")
    return ready_s, lines


def tagged(lines, tag):
    found = [line[len(tag) + 1:] for line in lines if line.startswith(tag + " ")]
    if not found:
        raise RuntimeError(f"perfbench printed no {tag} line")
    return json.loads(found[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker self-test (tampered results must fail)")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.self_test:
        out = build(["perfbench_selftest"])
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["perfbench", "nocmap_cli"])
    deadline = max(deadline, time.monotonic() + 120.0)  # a cold build gets its own budget
    bench = [os.path.join(out, "perfbench"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", repr(args.seconds),
              "--trace", str(args.trace), "--work-dir", out,
              "--cli", os.path.join(out, "nocmap_cli"),
              "--trace-path", os.path.join(out, f"trace-{args.workload}-{args.seed}.json")]

    setup = []

    def sample_setup(count):
        for _ in range(count if args.trace == 0 else 0):
            setup.append(run_bench(bench + ["--setup-only"], deadline)[0])

    sample_setup(SETUP_REPEATS // 2)
    ready_s, lines = run_bench(bench, deadline)
    setup.append(ready_s)
    sample_setup(SETUP_REPEATS - SETUP_REPEATS // 2)

    provenance = tagged(lines, "PROVENANCE")
    result = tagged(lines, "RESULT")
    provenance.update({"workload": args.workload, "seed": args.seed,
                       "host_cores": len(os.sched_getaffinity(0)), "commit": commit(),
                       "source_sha256": source_digest()})
    for line in lines:
        if line.startswith(("note: ", "FAILED: ")):
            print(line)
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    attempted, failed = int(result["attempted"]), int(result["failed"])
    measured = result["metrics"]
    if args.trace == 0:
        measured["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        measured["ok_frac"] = {"value": (attempted - failed) / attempted if attempted else 0.0,
                               "unit": "ratio"}
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
        elif args.trace == 1:
            value = 0.0  # this workload does not exercise the layer
            print(f"metric {m['name']}: not exercised by {args.workload}, reported as 0")
        else:
            raise RuntimeError(f"perfbench reported no {m['name']}")
        if value is None:
            raise RuntimeError(f"{m['name']} could not be measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value} {m['unit']}")
    if args.trace == 0:
        print(f"metric failed_frac = {failed / attempted if attempted else 1.0} ratio "
              f"({failed} of {attempted} operations)")
        print(f"setup samples (s): {' '.join(f'{s:.6f}' for s in setup)}")
    correct = attempted > 0 and failed == 0
    print(f"checker: {'PASS' if correct else 'FAIL'} ({attempted - failed} of {attempted} "
          f"operations verified)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, TimeoutError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as exc:
        log(f"error: {exc}")
        sys.exit(1)
