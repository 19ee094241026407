"""One measured pass of a workload, in a fresh Python process.

Reads a JSON spec on stdin and prints one JSON object on stdout.  The spec
holds the checkout's `src` directory, the inputs to set up, the CLI
argument lists, the cache directory, the limits on the time spent on warm
replays (at least one is made), and whether to trace.  With "setup_only"
the process times set-up and stops.

Set-up is the import of chainprofile followed by loading and validating
every input.  The cold pass then runs each query once through
`chainprofile.cli.main` against the empty cache directory; each warm replay
runs the same list again against the cache the cold pass filled.

Every time is reported twice: as measured (`*_wall`) and scaled to the
machine's reference speed.  The speed of a process on a shared machine
drifts by up to 2x, in phases of seconds to minutes, so a fixed pure-Python
loop (the probe) is timed right before and right after each measured
interval, and every half second inside a cold query, and each stretch
between two probes is multiplied by PROBE_REF_S over the mean of their
times.  A change to chainprofile moves the scaled time as much as the
measured one; a change in machine speed moves the probe with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import traceback
from time import perf_counter


PROBE_LOOPS = 70000
PROBE_REF_S = 0.02    # the probe's time at the usual speed of that machine
SAMPLE_EVERY_S = 0.5  # probe interval inside a cold query


def _probe(loops=PROBE_LOOPS):
    """Time of PROBE_LOOPS rounds of a fixed dict-and-tuple loop, from the
    median of five timings of `loops` rounds."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        d = {}
        for i in range(loops):
            d[(i * 7919) % 10007] = (i, i + 1)
        times.append(perf_counter() - t0)
    return sorted(times)[2] * PROBE_LOOPS / loops


def _scale(seconds, before, after):
    return seconds * PROBE_REF_S * 2 / (before + after)


def _run(main, argv, answers):
    """Run one query and return (rc, start, end, answer index).  Its output
    is stored once in `answers` (text -> index), so thousands of identical
    warm answers cost no memory."""
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as e:   # argparse exits on arguments it rejects
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:         # the command line would exit 1 on these
            traceback.print_exc()
            rc = 1
    t1 = perf_counter()
    return rc, t0, t1, answers.setdefault(out.getvalue(), len(answers))


def _run_sampled(main, argv, answers, before):
    """Run one cold query with a short probe every SAMPLE_EVERY_S inside it.

    Returns (rc, wall, scaled, answer index, probe after the query); `wall`
    leaves out the time the inner probes took."""
    points = []   # (start, end, probe time) of each inner probe

    def tick(signum, frame):
        t0 = perf_counter()
        p = _probe(PROBE_LOOPS // 10)
        points.append((t0, perf_counter(), p))

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        rc, t0, t1, answer = _run(main, argv, answers)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    after = _probe()
    wall = scaled = 0.0
    start, p_start = t0, before
    for s, e, p in points:
        if s >= t1:
            break
        wall += s - start
        scaled += _scale(s - start, p_start, p)
        start, p_start = min(e, t1), p
    wall += t1 - start
    scaled += _scale(t1 - start, p_start, after)
    return rc, wall, scaled, answer, after


def _dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def measure(spec):
    src = spec["src"]
    sys.path.insert(0, src)
    probe = _probe()
    t0 = perf_counter()
    import chainprofile.cli
    if not os.path.abspath(chainprofile.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"chainprofile was imported from {chainprofile.__file__}, "
                         f"not from {src}")
    import_s = perf_counter() - t0

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    # functions are looked up in their modules, where the tracer rebinds them
    inputs = chainprofile.inputs
    t0 = perf_counter()
    for item in spec["inputs"]:
        s, oracle = (inputs.load_input(item) if os.path.exists(item)
                     else inputs.load_example(item))
        chainprofile.skeleton.validate(s, oracle)
    setup_wall = import_s + perf_counter() - t0
    after = _probe()
    result = {"setup_wall": setup_wall, "setup_s": _scale(setup_wall, probe, after)}
    probe = after
    if spec.get("setup_only"):
        return result

    main = chainprofile.cli.main
    extra = ["--format", "json", "--workers", "1", "--cache", spec["cache"]]
    answers = {}
    result["cold"] = []
    for argv in spec["queries"]:
        rc, wall, scaled, a, probe = _run_sampled(main, argv + extra, answers, probe)
        result["cold"].append({"rc": rc, "wall": wall, "s": scaled, "answer": a})
    result["cold_wall"] = sum(c["wall"] for c in result["cold"])
    result["cold_s"] = sum(c["s"] for c in result["cold"])
    result["dir_bytes"] = _dir_bytes(spec["cache"])
    # warm replays take 15 % of the cold time, within the spec's limits, in
    # blocks of about half a second between two probes
    lo, hi = spec["warm_seconds"]
    warm_seconds = min(max(0.15 * result["cold_wall"], lo), hi)
    result["warm"] = []
    t0 = perf_counter()
    while not result["warm"] or perf_counter() - t0 < warm_seconds:
        block = []
        t1 = perf_counter()
        while not block or perf_counter() - t1 < min(0.5, warm_seconds):
            runs = [_run(main, argv + extra, answers) for argv in spec["queries"]]
            block.append({"wall": sum(end - start for _, start, end, _ in runs),
                          "rc": [rc for rc, _, _, _ in runs],
                          "answer": [a for _, _, _, a in runs]})
        after = _probe()
        for replay in block:
            replay["s"] = _scale(replay["wall"], probe, after)
        result["warm"] += block
        probe = after
    result["answers"] = list(answers)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    json.dump(measure(json.load(sys.stdin)), sys.stdout)
