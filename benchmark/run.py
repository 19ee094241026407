"""chainprofile benchmark: cold and warm time to an exact answer.

    python3 benchmark/run.py --workload profile --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload is a list of real CLI
queries (see workloads.py).  Every pass runs in a fresh Python process
(worker.py) that imports chainprofile from the checkout's `src`, runs the
list once against an empty cache directory (cold) and then replays it
against the filled cache (warm).  Passes repeat while another one fits in
`--seconds`; there is always at least one.  `cold_s` and `peak_rss_mb` are
medians over passes, `setup_s` a median over processes, and `warm_s` a
median over replays.  Times are scaled to the machine's reference speed by
a probe timed around and inside each interval (see worker.py).  The load is a closed
loop with one client: queries run back to back with `--workers 1`.

Every answer is checked against an independent reference.  A query that
exits nonzero or disagrees counts as failed; the run still reports its
metrics but prints "correct": false.

With `--trace 0` the last line of output reports the end-to-end metrics.
With `--trace 1` it reports the per-layer metrics of a traced pass (see
tracer.py), made twice to check that every count repeats exactly, plus
`trace.overhead_s`, the traced minus the untraced cold time.

`--smoke` shrinks each workload to toy size for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

WARM_SECONDS = (1.0, 4.0)  # limits on the time per pass spent on warm replays
SETUP_SAMPLES = 11     # set-up is timed in at least this many processes
RUN_LIMIT_S = 170      # a run, whatever happens, ends within this


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


_DEADLINE = perf_counter() + RUN_LIMIT_S


def _child(spec):
    # a fixed hash seed keeps dict and set layouts, and so timings, from
    # varying between otherwise identical passes
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=json.dumps(spec), capture_output=True, text=True,
                          cwd=ROOT, env=env,
                          timeout=max(1.0, _DEADLINE - perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr[-2000:])
    return json.loads(proc.stdout)


def _failure(query, rc, out):
    """None when the query answered correctly, else the reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        query.check(json.loads(out))
    except (workloads.Mismatch, ValueError, KeyError, TypeError) as e:
        return f"{type(e).__name__}: {e}"
    return None


class Tally:
    """Queries attempted and failed over every pass of the run."""

    def __init__(self, queries):
        self.queries = queries
        self.attempted = 0
        self.failed = 0

    def add(self, result):
        """Count every query a pass ran; each distinct answer is checked once."""
        runs = [(i, c["rc"], c["answer"]) for i, c in enumerate(result["cold"])]
        for replay in result["warm"]:
            runs += list(zip(range(len(self.queries)), replay["rc"], replay["answer"]))
        verdicts = {}
        for key in runs:
            if key not in verdicts:
                i, rc, a = key
                verdicts[key] = _failure(self.queries[i], rc, result["answers"][a])
                if verdicts[key] is not None:
                    print(f"failed: {self.queries[i].label}: {verdicts[key]}",
                          file=sys.stderr)
            self.attempted += 1
            self.failed += verdicts[key] is not None


def _pass_spec(wl, work, warm_seconds, trace=False):
    return {"src": os.path.join(ROOT, "src"), "inputs": wl.inputs,
            "queries": [q.argv for q in wl.queries],
            "cache": tempfile.mkdtemp(prefix="cache-", dir=work),
            "warm_seconds": warm_seconds, "trace": trace}


def timed_run(wl, work, seconds, tally, warm_seconds=WARM_SECONDS):
    start = perf_counter()
    passes = []
    while True:
        passes.append(_child(_pass_spec(wl, work, warm_seconds)))
        tally.add(passes[-1])
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        spec = {"src": os.path.join(ROOT, "src"), "inputs": wl.inputs, "setup_only": True}
        setups.append(_child(spec)["setup_s"])
    warm = [r["s"] for p in passes for r in p["warm"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cold_s": (statistics.median(p["cold_s"] for p in passes), "s"),
        "warm_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def _units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")) or name == "fail_frac":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def traced_run(wl, work, tally):
    plain = _child(_pass_spec(wl, work, (0, 0)))
    tally.add(plain)
    traced = []
    for _ in range(2):
        traced.append(_child(_pass_spec(wl, work, (0, 0), trace=True)))
        tally.add(traced[-1])
    layers = [dict(t["layers"], **{"cache.dir_bytes": t["dir_bytes"]}) for t in traced]
    differ = sorted(k for k, v in layers[0].items()
                    if _units(k) in ("count", "bytes") and v != layers[1][k])
    for key in differ:
        print(f"per-layer count {key} differs across two traced passes: "
              f"{layers[0][key]} vs {layers[1][key]}", file=sys.stderr)
    metrics = dict(layers[0])
    metrics["trace.overhead_s"] = traced[0]["cold_s"] - plain["cold_s"]
    metrics["fail_frac"] = tally.failed / tally.attempted
    return {k: (v, _units(k)) for k, v in metrics.items()}, not differ


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy sizes, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chainprofile", "__init__.py")):
        print(f"error: no chainprofile sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        wl = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
        tally = Tally(wl.queries)
        counts_repeat = True
        if args.trace:
            metrics, counts_repeat = traced_run(wl, work, tally)
        else:
            metrics = timed_run(wl, work, args.seconds, tally,
                                warm_seconds=(0.1, 0.1) if args.smoke else WARM_SECONDS)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            os.rmdir(WORK)
    print(json.dumps({
        "correct": tally.failed == 0 and counts_repeat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
