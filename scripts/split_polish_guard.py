#!/usr/bin/env python3
"""Memory and parity guard for nmap-split.

Runs

    nocmap_cli map synth:nodes=40,edges=72,seed=1 --algo nmap-split
    nocmap_cli map synth:nodes=64,edges=115,seed=1 --algo nmap-split

and fails unless each child's peak RSS (os.wait4) stays under
--max-rss-mb and its stdout reports the known cost. The exact polish
solves MCF1/MCF2 by column generation over a small path master; a dense
(commodities x links) arc tableau on the synth40 instance needs over
300 MB, so this guard fails if one comes back. The synth64 case pins the
Frank-Wolfe sweep's result on a larger graph.

Usage: split_polish_guard.py [--max-rss-mb 64] path/to/nocmap_cli
Exits 1 on a failed check, 2 when the CLI itself fails.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

CASES = [
    ("synth:nodes=40,edges=72,seed=1", "comm cost: 20807.7"),
    ("synth:nodes=64,edges=115,seed=1", "comm cost: 34711.7"),
]


def run_case(cli, graph, expected, max_rss_mb):
    """Runs one case; returns 0 (ok), 1 (failed check) or 2 (CLI failed)."""
    command = [cli, "map", graph, "--algo", "nmap-split"]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen(command, stdout=out, stderr=err, text=True)
        # Reap the child with wait4 to read its own peak RSS (ru_maxrss, KiB
        # on Linux); RUSAGE_CHILDREN would report the largest of all cases.
        _, wait_status, usage = os.wait4(proc.pid, 0)
        wall_s = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    exit_code = os.waitstatus_to_exitcode(wait_status)
    peak_mb = usage.ru_maxrss / 1024.0
    print(f"{' '.join(command)}: exit {exit_code}, {wall_s:.2f} s, "
          f"peak RSS {peak_mb:.1f} MB")
    if exit_code != 0:
        sys.stderr.write(stderr)
        return 2

    ok = True
    if peak_mb >= max_rss_mb:
        print(f"FAIL: peak RSS {peak_mb:.1f} MB >= {max_rss_mb:g} MB")
        ok = False
    if expected not in stdout:
        print(f"FAIL: stdout lacks '{expected}'")
        sys.stdout.write(stdout)
        ok = False
    if ok:
        print(f"ok: peak RSS under {max_rss_mb:g} MB and '{expected}' reported")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cli", help="path to the nocmap_cli binary")
    parser.add_argument("--max-rss-mb", type=float, default=64.0)
    args = parser.parse_args()
    status = 0
    for graph, expected in CASES:
        status = max(status, run_case(args.cli, graph, expected, args.max_rss_mb))
    return status


if __name__ == "__main__":
    sys.exit(main())
