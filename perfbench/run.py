#!/usr/bin/env python3
"""Builds the S2 benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and compiles the
library and the benchmark binary s2perf (Release) into
.bench_build/perfbench; later calls only re-link what changed. Build output
goes to stderr, so the last line on stdout is the result object s2perf
prints. Each run gets a fresh spill directory under .bench_tmp/ that is
removed afterwards, also when the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds s2perf; returns its path."""
    configured = any(os.path.exists(os.path.join(BUILD, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "s2perf",
                    "-j", "3"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "s2perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run (which kills and reaps the
    # child) and the cleanup below instead of dying on the spot.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    os.makedirs(TMP_ROOT, exist_ok=True)
    spill_dir = tempfile.mkdtemp(prefix=args.workload + "-", dir=TMP_ROOT)
    try:
        sys.stdout.flush()
        completed = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--tmp", spill_dir],
            timeout=RUN_TIMEOUT_S)
        return completed.returncode
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still owns a directory under it


if __name__ == "__main__":
    sys.exit(main())
