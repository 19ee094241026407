"""Record one untraced and one traced run of every workload, with metadata.

    python3 benchmark/baseline.py --seed 1 --out benchmark/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def _run(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "src_lines": _src_lines(),
        "workloads": {},
    }
    for name in workloads.NAMES:
        record["workloads"][name] = {
            "end_to_end": _run(name, args.seed, args.seconds, 0),
            "per_layer": _run(name, args.seed, args.seconds, 1),
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
