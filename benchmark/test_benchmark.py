"""The benchmark's own tests, at smoke size (a few seconds in all).

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "benchmark", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name):
    out = _result("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                  "--smoke")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_traced_run_reports_every_layer_and_repeats(name, tmp_path):
    out = _result("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1",
                  "--smoke")
    # correct also requires every count to repeat across the two traced passes
    assert out["correct"] and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["cli.main.calls"] > 0
    if name == "finite-sweep":
        assert m["profiles.finite_profile.calls"] > 0
    else:
        assert m["profiles.finite_profile.calls"] == 0
    assert m["cache.hits"] == len(workloads.build(name, 3, str(tmp_path), smoke=True).queries)


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "profile", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_failing_queries_are_counted_not_fatal(tmp_path):
    spec = {"src": os.path.join(ROOT, "src"), "inputs": ["z2"],
            "queries": [["psi", "--input", "nowhere", "-n", "2"], ["no-such-command"]],
            "cache": str(tmp_path), "warm_seconds": [0, 0]}
    out = run._child(spec)
    assert [c["rc"] for c in out["cold"]] == [2, 2]
    assert [r["rc"] for r in out["warm"]] == [[2, 2]]


def test_tracer_refuses_a_renamed_function(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import chainprofile.skeleton as skeleton
    monkeypatch.setitem(tracer.FUNCTIONS, "skeleton.gone",
                        ("chainprofile.skeleton", "no_such_function"))
    with pytest.raises(tracer.TracerError, match="no longer exists"):
        tracer.Tracer().install()
    assert not hasattr(skeleton.build_chain, "__wrapped__")
    monkeypatch.setitem(tracer.METHODS, "words.gone",
                        ("chainprofile.words", "WordOracle", "no_such_method"))
    monkeypatch.delitem(tracer.FUNCTIONS, "skeleton.gone")
    with pytest.raises(tracer.TracerError, match="no longer exists"):
        tracer.Tracer().install()


def test_inputs_follow_the_seed():
    a = [q.argv for q in workloads.build("disk-fill", 7, "").queries]
    b = [q.argv for q in workloads.build("disk-fill", 7, "").queries]
    c = [q.argv for q in workloads.build("disk-fill", 8, "").queries]
    assert a == b and a != c


def test_disks_are_cycles_with_one_square_per_face():
    rng = random.Random(0)
    for area in (1, 4, 6, 9):
        cells = workloads.polyomino(rng, area)
        assert len(set(cells)) == area
        faces = {("f", x, y): 1 for x, y in cells}
        bnd = workloads._grid_boundary(faces)
        vertices = {}
        for (kind, x, y), c in bnd.items():
            head = (x + 1, y) if kind == "h" else (x, y + 1)
            for v, s in ((head, c), ((x, y), -c)):
                vertices[v] = vertices.get(v, 0) + s
        assert not any(vertices.values())
    for faces in (1, 2, 3, 7):
        words, edges = workloads.surface_disk(rng, faces)
        assert len(edges) == 8 * faces - 2 * (faces - 1)
        assert len(set(words)) == faces


def test_checks_reject_wrong_answers(tmp_path):
    wl = workloads.build("finite-sweep", 1, str(tmp_path), smoke=True)
    (query,) = wl.queries
    good = {"values": [0, 0, 1, 1, 3], "witnesses": [None, None] + [None] * 3}
    with pytest.raises(workloads.Mismatch, match="missing witness"):
        query.check(good)
    with pytest.raises(workloads.Mismatch, match="reference"):
        query.check(dict(good, values=[0, 0, 1, 1, 2]))
    (fv,) = workloads.build("disk-fill", 1, "", smoke=True).queries
    with pytest.raises(workloads.Mismatch, match="area"):
        fv.check({"value": 3, "filling": {"dim": 2, "terms": []}})
    tally = run.Tally([query])
    tally.add({"answers": ["", "{}"], "cold": [{"rc": 4, "answer": 0}],
               "warm": [{"rc": [0], "answer": [1]}, {"rc": [0], "answer": [1]}]})
    assert (tally.attempted, tally.failed) == (3, 3)
