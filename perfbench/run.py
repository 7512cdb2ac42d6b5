#!/usr/bin/env python3
"""Builds the host-time benchmark in Release and runs one workload.

    python3 perfbench/run.py --workload vmtp_bulk|demux_fanout|conn_flood \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/perfbench
(incremental after the first run) and its output to stderr, so the last
line of stdout is the workload's JSON result. The exit code is the
workload's: non-zero when the build fails or any output check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("vmtp_bulk", "demux_fanout", "conn_flood")


def build():
    """Configures and builds hostbench; returns its path, or None on failure."""
    if not (ROOT / "src").is_dir():
        print("run.py: no src/ next to perfbench/; nothing to build", file=sys.stderr)
        return None
    build_dir = ROOT / ".bench_build" / "perfbench"
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return build_dir / "hostbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="only show that every output check rejects a wrong input")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        cmd = [str(binary), "--selftest"]
    else:
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
