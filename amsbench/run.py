#!/usr/bin/env python3
"""Builds and runs the amsnet end-to-end benchmark.

    python3 amsbench/run.py --workload <retrain|inference|vmac> --seed <n> \
        --seconds <s> --trace <0|1> [--size full|tiny]

Paths resolve from this script's location, so any working directory
works. The first call configures and builds the library plus the
`amsbench` binary (Release) into `.bench_build/` at the repository root;
later calls rebuild incrementally.
Build output goes to stderr. The binary's stdout is passed through, and
its last line is the JSON result object.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "amsbench")
# The binary measures for --seconds and then finishes its last round, the
# replay checks and, in a traced run, the probes: it gets three times the
# window plus a fixed margin before it is stopped.
RUN_MARGIN_S = 60


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("amsnet sources not found at %s (missing %s)" % (ROOT, need))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("configure failed", 3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", BUILD, "--target", "amsbench", "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed", 3)
    return os.path.join(BUILD, "amsbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["retrain", "inference", "vmac"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    binary = build()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    # The library reads AMSNET_* / REPRO_FAST knobs from the environment;
    # the benchmark pins its own configuration instead.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("AMSNET_") and k != "REPRO_FAST"}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", work]
    timeout_s = 3 * args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, env=env, cwd=work, stdout=subprocess.PIPE,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % timeout_s, 4)
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with %d" % proc.returncode, proc.returncode or 1)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        fail("benchmark printed no result line", 5)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line", 5)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
