#!/usr/bin/env python3
"""Smoke test of the amsnet benchmark: runs every workload at a tiny size.

    python3 amsbench/smoke_test.py

For each workload it makes one end-to-end run (--trace 0) and one traced
run (--trace 1) with `--size tiny`, and checks that:
  * the last stdout line is the result object, with zero failed operations;
  * the end-to-end run emits every `end_to_end` metric of BENCHMARK.json
    and the traced run every `per_layer` metric, each exactly once, with
    its unit, and nothing else.
Exits 0 when all checks pass.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    pairs = []
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1],
                        object_pairs_hook=lambda kv: pairs.append(kv) or dict(kv))
    return result, pairs


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[key]}
            result, pairs = run(w, trace)
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                errors.append("%s trace=%d: %d of %d operations failed"
                              % (w, trace, result["failed"], result["attempted"]))
            # The metrics object is the last-but-one dict the hook saw
            # (the outermost is last); its raw pairs expose duplicates.
            names = [k for k, _ in pairs[-2]]
            for name in sorted(set(names)):
                if names.count(name) != 1:
                    errors.append("%s trace=%d: %s appears %d times"
                                  % (w, trace, name, names.count(name)))
            metrics = result["metrics"]
            if set(metrics) != set(units):
                errors.append("%s trace=%d: missing %s, extra %s"
                              % (w, trace, sorted(set(units) - set(metrics)),
                                 sorted(set(metrics) - set(units))))
            for name, m in metrics.items():
                if name in units and m["unit"] != units[name]:
                    errors.append("%s trace=%d: %s has unit %r, BENCHMARK.json says %r"
                                  % (w, trace, name, m["unit"], units[name]))
    for e in errors:
        print("FAIL " + e)
    print("smoke test: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
