#!/usr/bin/env python3
"""Memory and parity guard for nmap-split's exact polish.

Runs

    nocmap_cli map synth:nodes=40,edges=72,seed=1 --algo nmap-split

and fails unless the child's peak RSS (resource.getrusage) stays under
--max-rss-mb and its stdout reports the known cost. The exact polish
solves MCF1/MCF2 by column generation over a small path master; a dense
(commodities x links) arc tableau on this instance needs over 300 MB, so
this guard fails if one comes back.

Usage: split_polish_guard.py [--max-rss-mb 64] path/to/nocmap_cli
Exits 1 on a failed check, 2 when the CLI itself fails.
"""

import argparse
import resource
import subprocess
import sys
import time

GRAPH = "synth:nodes=40,edges=72,seed=1"
EXPECTED = "comm cost: 20807.7"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cli", help="path to the nocmap_cli binary")
    parser.add_argument("--max-rss-mb", type=float, default=64.0)
    args = parser.parse_args()

    command = [args.cli, "map", GRAPH, "--algo", "nmap-split"]
    start = time.monotonic()
    proc = subprocess.run(command, capture_output=True, text=True)
    wall_s = time.monotonic() - start
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the one child run.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"{' '.join(command)}: exit {proc.returncode}, {wall_s:.2f} s, "
          f"peak RSS {peak_mb:.1f} MB")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 2

    ok = True
    if peak_mb >= args.max_rss_mb:
        print(f"FAIL: peak RSS {peak_mb:.1f} MB >= {args.max_rss_mb:g} MB")
        ok = False
    if EXPECTED not in proc.stdout:
        print(f"FAIL: stdout lacks '{EXPECTED}'")
        sys.stdout.write(proc.stdout)
        ok = False
    if ok:
        print(f"ok: peak RSS under {args.max_rss_mb:g} MB and '{EXPECTED}' reported")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
