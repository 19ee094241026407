"""End-to-end command-line checks."""

import ast
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

import chainprofile
from chainprofile.cache import ResultCache, profile_key
from chainprofile.cli import _json_text, main
from chainprofile.inputs import bundled_examples, format_chain, load_example, parse_chain
from chainprofile.profiles import Budget
from chainprofile.skeleton import skeleton_fingerprint

from test_profile import three_torus_input

SQUARE = "(1, e_a) + (a, e_b) - (b, e_a) - (1, e_b)"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_a_query_without_caps_gets_the_default_budget():
    from chainprofile.cli import _budget, _command_parser

    assert _budget(_command_parser("psi").parse_args(["--input", "z2", "-n", "4"])) == Budget()


def test_examples_listing(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in ("f2", "z2", "zmod2", "surface2"):
        assert name in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "--input", "z2", "--no-cache",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2
    assert data["cells"] == {"0": 1, "1": 2, "2": 1}
    assert len(data["fingerprint"]) == 16


def test_validate_csv_has_the_json_fields(capsys):
    _, out, _ = run(capsys, "validate", "--input", "z2", "--no-cache",
                    "--format", "json")
    data = json.loads(out)
    code, out, _ = run(capsys, "validate", "--input", "z2", "--no-cache",
                       "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["key", "value"]
    assert rows == [["fingerprint", data["fingerprint"]], ["dim", "2"],
                    ["oracle", data["oracle"]],
                    ["cells_0", "1"], ["cells_1", "2"], ["cells_2", "1"]]


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", "z2", "--no-cache",
                       "--chain-dim", "1", "--max-norm", "6", "--cycles",
                       "--format", "csv")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert rows["4"] == "2"
    assert rows["6"] == "4"


def test_cycle_budget_is_reported(capsys):
    code, _, err = run(capsys, "enumerate", "--input", "z2", "--no-cache",
                       "--chain-dim", "1", "--max-norm", "8", "--cycles",
                       "--node-cap", "5")
    assert code == 4
    assert "cycle enumeration" in err


def test_enumerate_listing_round_trips(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", "z2", "--no-cache",
                       "--chain-dim", "1", "--max-norm", "4", "--cycles",
                       "--list", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["chains"]["4"]) == 2
    assert data["counts"]["4"] == 2


def test_fv_and_cache_round_trip(tmp_path, capsys):
    args = ("fv", "--input", "z2", "--chain", SQUARE,
            "--cache", str(tmp_path))
    code, first, _ = run(capsys, *args)
    assert code == 0
    assert "filling volume 1" in first
    code, second, err = run(capsys, *args)
    assert code == 0
    assert second == first
    assert "recomputing" not in err


@pytest.mark.parametrize("argv", [("psi", "--input", "z2", "-n", "4"),
                                  ("fv", "--input", "z2", "--chain", SQUARE)])
def test_a_cache_that_cannot_be_written_costs_a_warning(tmp_path, capsys, argv):
    # a regular file where the cache directory should be
    blocked = tmp_path / "cache"
    blocked.write_text("")
    code, expected, _ = run(capsys, *argv, "--no-cache")
    code, out, err = run(capsys, *argv, "--cache", str(blocked))
    assert (code, out) == (0, expected)
    assert err.startswith("warning: cache not written: ") and err.count("\n") == 1, err


def test_a_0_chain_that_does_not_sum_to_0_is_refused_at_once(capsys):
    for name in ("z2", "f2"):
        code, out, err = run(capsys, "fv", "--input", name, "--chain", "(1, v) + 2*(a, v)",
                             "--no-cache")
        assert (code, out, err) == (
            2, "", "error: the coefficients of this 0-chain sum to 3, not 0 as on every "
                   "boundary, so it has no filling\n")
    code, out, _ = run(capsys, "fv", "--input", "z2", "--chain", "(1, v) - (a b, v)",
                       "--no-cache")
    assert (code, out) == (0, "filling volume 2\nfilling: -(1, e_a) - (a, e_b)\n")


def test_a_cycle_with_nothing_above_it_is_refused(tmp_path, capsys):
    code, out, err = run(capsys, "fv", "--input", "z2", "--chain", "(1, f0)", "--no-cache")
    assert (code, out, err) == (
        2, "", "error: cycles of dimension 2 have no fillings in a 2-dimensional complex\n")
    # no relator, so no 2-cells, over Z/2, where a loop of two a-edges closes
    path = tmp_path / "free-z2.json"
    path.write_text(json.dumps({
        "dim": 2, "presentation": "<a |>",
        "oracle": {"kind": "finite-table", "elements": ["e", "a"],
                   "table": [[0, 1], [1, 0]], "generator_map": {"a": 1}}}))
    code, out, err = run(capsys, "fv", "--input", str(path), "--chain", "(1, e_a) + (a, e_a)",
                         "--no-cache")
    assert (code, out, err) == (2, "", "error: no cells available one dimension up\n")


def test_tampered_cache_is_recomputed(tmp_path, capsys):
    args = ("fv", "--input", "z2", "--chain", SQUARE, "--cache", str(tmp_path),
            "--format", "json")
    code, first, _ = run(capsys, *args)
    assert code == 0
    (entry_file,) = tmp_path.glob("*.json")
    data = json.loads(entry_file.read_text())
    data["value"]["value"] = 7
    entry_file.write_text(json.dumps(data))
    code, second, err = run(capsys, *args)
    assert code == 0
    assert json.loads(second)["value"] == 1
    assert "recomputing" in err
    assert json.loads(entry_file.read_text())["value"]["value"] == 1


@pytest.mark.parametrize("query", [("psi", "--input", "z2"),
                                   ("finite-profile", "--input", "zmod2")])
def test_forged_size_zero_witness_is_recomputed(tmp_path, capsys, query):
    args = (*query, "-n", "6", "--cache", str(tmp_path))
    code, first, _ = run(capsys, *args)
    assert code == 0
    (entry_file,) = tmp_path.glob("*.json")
    data = json.loads(entry_file.read_text())
    assert data["value"]["witnesses"][0] is None
    data["value"]["witnesses"][0] = {"cycle": "forged", "filling": "forged"}
    entry_file.write_text(json.dumps(data))
    code, second, err = run(capsys, *args)
    assert code == 0
    assert second == first
    assert "recomputing" in err
    assert json.loads(entry_file.read_text())["value"]["witnesses"][0] is None


def _booleans_in_psi_values(value):
    assert value["values"][4:6] == [1, 1]
    value["values"][4:6] = [True, True]


def _boolean_fv_value(value):
    assert value["value"] == 1
    value["value"] = True


def _boolean_finite_coeff(value):
    # the negated size-2 witness is a valid one, with the filling coefficient 1
    wit = value["witnesses"][2]
    for term in wit["cycle"] + wit["filling"]:
        term["coeff"] = -term["coeff"]
    assert wit["filling"][0]["coeff"] == 1
    wit["filling"][0]["coeff"] = True


def _string_psi_coeff(value):
    terms = value["witnesses"][4]["cycle"]["terms"]
    term = next(t for t in terms if t["coeff"] == -1)
    term["coeff"] = " -1 "


def _string_psi_dim(value):
    assert value["witnesses"][4]["filling"]["dim"] == 2
    value["witnesses"][4]["filling"]["dim"] = "2"


def _boolean_fv_coeff(value):
    (term,) = value["filling"]["terms"]
    assert term["coeff"] == 1
    term["coeff"] = True


@pytest.mark.parametrize("query, forge", [
    (("psi", "--input", "z2", "-n", "5"), _booleans_in_psi_values),
    (("fv", "--input", "z2", "--chain", SQUARE), _boolean_fv_value),
    (("finite-profile", "--input", "zmod2", "-n", "4"), _boolean_finite_coeff),
    (("psi", "--input", "z2", "-n", "4"), _string_psi_coeff),
    (("psi", "--input", "z2", "-n", "4"), _string_psi_dim),
    (("fv", "--input", "z2", "--chain", SQUARE), _boolean_fv_coeff)],
    ids=["psi-values", "fv-value", "finite-coeff", "psi-coeff-string", "psi-dim-string",
         "fv-coeff"])
def test_boolean_numbers_in_the_cache_are_recomputed(tmp_path, capsys, query, forge):
    args = (*query, "--cache", str(tmp_path), "--format", "json")
    code, first, _ = run(capsys, *args)
    assert code == 0
    (entry_file,) = tmp_path.glob("*.json")
    stored = entry_file.read_text()
    data = json.loads(stored)
    forge(data["value"])
    entry_file.write_text(json.dumps(data))
    code, second, err = run(capsys, *args)
    assert code == 0
    assert second == first and "true" not in second
    assert "recomputing" in err
    assert "true" not in entry_file.read_text()
    assert entry_file.read_text() == stored  # evicted and written again


FV_QUERY = ("fv", "--input", "z2", "--chain", SQUARE)
PSI_QUERY = ("psi", "--input", "z2", "-n", "4")
FINITE_QUERY = ("finite-profile", "--input", "zmod2", "-n", "4")


def _extra(d, field="extra"):
    assert field not in d
    d[field] = True


# a field its writer never writes, at each level of each kind of entry; the
# check does not read it, so only refusing it keeps it out of the answer
@pytest.mark.parametrize("query, forge", [
    (FV_QUERY, lambda v: _extra(v, "injected")),
    (FV_QUERY, lambda v: _extra(v["filling"])),
    (FV_QUERY, lambda v: _extra(v["filling"]["terms"][0])),
    (PSI_QUERY, lambda v: _extra(v["witnesses"][4])),
    (PSI_QUERY, lambda v: _extra(v["witnesses"][4]["cycle"])),
    (PSI_QUERY, lambda v: _extra(v["witnesses"][4]["filling"]["terms"][0])),
    (FINITE_QUERY, lambda v: _extra(v["witnesses"][2])),
    (FINITE_QUERY, lambda v: _extra(v["witnesses"][2]["cycle"][0])),
    (FINITE_QUERY, lambda v: _extra(v["witnesses"][2]["filling"][0]))],
    ids=["fv", "fv-filling", "fv-term", "psi-witness", "psi-chain", "psi-term",
         "finite-witness", "finite-cycle-term", "finite-filling-term"])
def test_a_field_no_check_reads_is_recomputed(tmp_path, capsys, query, forge):
    for fmt in ("json", "human"):
        args = (*query, "--cache", str(tmp_path / fmt), "--format", fmt)
        code, first, _ = run(capsys, *args)
        assert code == 0
        (entry_file,) = (tmp_path / fmt).glob("*.json")
        stored = entry_file.read_text()
        data = json.loads(stored)
        forge(data["value"])
        entry_file.write_text(json.dumps(data))
        code, second, err = run(capsys, *args)
        assert (code, second) == (0, first)
        assert err == "cached result failed verification; recomputing\n"
        assert entry_file.read_text() == stored  # evicted and written again


def test_a_planted_psi_entry_does_not_admit_a_finite_table(tmp_path, capsys):
    # the enumeration profiles refuse a finite-table oracle, and so does the
    # reload of a psi entry planted under the key of that query
    args = ("psi", "--input", "zmod2", "-n", "3", "--cache", str(tmp_path))
    code, out, _ = run(capsys, *args)
    assert code == 6 and out == ""
    s, oracle = load_example("zmod2")
    key = profile_key("psi", skeleton_fingerprint(s, oracle), 3, Budget())
    ResultCache(str(tmp_path)).put(key, {"values": [0] * 4, "witnesses": [None] * 4})
    code, out, err = run(capsys, *args)
    assert code == 6 and out == ""
    assert "recomputing" in err and not list(tmp_path.glob("*.json"))


def test_psi_output_and_worker_independence(tmp_path, capsys):
    base = ("psi", "--input", "z2", "-n", "6", "--no-cache")
    code, one, _ = run(capsys, *base, "--workers", "1")
    assert code == 0
    assert one.splitlines()[-1] == "6  2"
    code, two, _ = run(capsys, *base, "--workers", "2")
    assert code == 0
    assert two == one


def test_many_generators_fall_back_to_reversal(tmp_path, capsys):
    # the 7! * 2^7 signed permutations of a free basis are past the symmetry
    # cap, so the walks use reversal alone; the free closing cut keeps the
    # search to walks of length 2
    path = tmp_path / "f7.json"
    path.write_text(json.dumps({"dim": 2, "presentation": "<a, b, c, d, e, f, g |>",
                                "oracle": {"kind": "free"}}))
    t0 = time.time()
    code, out, _ = run(capsys, "psi", "--input", str(path), "-n", "4", "--no-cache")
    elapsed = time.time() - t0
    assert code == 0
    assert out.splitlines()[-1] == "4  0"
    assert elapsed < 1.0


def test_phi_cached_second_run_identical(tmp_path, capsys):
    args = ("phi", "--input", "z2", "-n", "6", "--cache", str(tmp_path),
            "--format", "json")
    code, first, _ = run(capsys, *args)
    code2, second, err = run(capsys, *args)
    assert code == code2 == 0
    assert json.loads(second)["values"] == json.loads(first)["values"]
    assert "recomputing" not in err


def test_phi_is_derived_from_cached_psi(tmp_path, capsys, monkeypatch):
    s, oracle = load_example("z2")
    fingerprint = skeleton_fingerprint(s, oracle)
    # a self-consistent fake phi entry must never be printed
    ResultCache(str(tmp_path)).put(profile_key("phi", fingerprint, 6, Budget()), {
        "values": list(range(7)), "budget": Budget().to_json_dict(),
        "witnesses": [None] + [{"partition": [1] * k, "psi": [1] * k}
                               for k in range(1, 7)]})
    code, out, _ = run(capsys, "phi", "--input", "z2", "-n", "6",
                       "--cache", str(tmp_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["values"] == [0, 0, 0, 0, 1, 1, 2]

    def no_psi(*args, **kwargs):
        raise AssertionError("psi recomputed despite a cached table")

    monkeypatch.setattr("chainprofile.cli.psi_table", no_psi)
    code, out, err = run(capsys, "psi", "--input", "z2", "-n", "6",
                         "--cache", str(tmp_path), "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "6,2"
    assert "recomputing" not in err


def test_cached_profile_reports_the_budget_of_the_query(tmp_path, capsys):
    args = ("psi", "--input", "z2", "-n", "4", "--cache", str(tmp_path),
            "--format", "json")
    code, first, _ = run(capsys, *args)
    assert code == 0
    (entry_file,) = tmp_path.glob("*.json")
    data = json.loads(entry_file.read_text())
    data["value"]["budget"] = {"fill_volume_cap": 999, "node_cap": 5}
    entry_file.write_text(json.dumps(data))
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert second == first


def test_finite_profile_command(capsys):
    code, out, _ = run(capsys, "finite-profile", "--input", "zmod2",
                       "-n", "6", "--no-cache", "--format", "csv")
    assert code == 0
    values = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert values == [0, 0, 1, 1, 2, 2, 3]


def test_bound_commands(tmp_path, capsys):
    f = tmp_path / "delta.txt"
    f.write_text("0 1 1 2 2")
    code, out, _ = run(capsys, "chain2-bound", "--delta", str(f),
                       "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "4,4"
    code, out, _ = run(capsys, "disk-bound", "--delta", str(f), "--parts", "2",
                       "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "4,3"


def test_unknown_input_lists_the_bundled_names(capsys):
    code, _, err = run(capsys, "validate", "--input", "missing", "--no-cache")
    assert code == 2
    assert "'missing' is neither a file nor a bundled name" in err
    assert ", ".join(sorted(bundled_examples())) in err


def test_a_directory_does_not_hide_the_bundled_input_of_its_name(tmp_path, capsys,
                                                                  monkeypatch):
    code, want, _ = run(capsys, "validate", "--input", "z2", "--format", "json")
    assert code == 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z2").mkdir()
    (tmp_path / "elsewhere").mkdir()
    assert run(capsys, "validate", "--input", "z2", "--format", "json") == (0, want, "")
    # a directory no bundled input is named after is refused as a file
    assert run(capsys, "validate", "--input", "elsewhere") == (
        2, "", "error: cannot read input file: [Errno 21] Is a directory: 'elsewhere'\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_an_input_that_is_not_a_regular_file_is_still_read():
    # a pipe, as the shell's <(...) or /dev/stdin gives, is a file to read
    text = json.dumps(bundled_examples()["z2"])
    proc = _fresh_process("-m", "chainprofile.cli", "validate", "--input", "/dev/stdin",
                          input=text)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok: boundary of boundary vanishes")


def test_a_copied_package_reads_its_bundled_inputs(tmp_path):
    # as an installed package does: the data directory is found next to the
    # modules, whatever the working directory
    site, elsewhere = tmp_path / "site", tmp_path / "elsewhere"
    shutil.copytree(os.path.join(SRC, "chainprofile"), site / "chainprofile",
                    ignore=shutil.ignore_patterns("__pycache__"))
    elsewhere.mkdir()
    env = dict(os.environ, PYTHONPATH=str(site))
    for query in (["examples"],
                  ["psi", "--input", "z2", "-n", "6", "--no-cache", "--format", "json"],
                  ["fv", "--input", "z2", "--chain", "(1, e_a) + (a, e_b) - (b, e_a) - (1, e_b)",
                   "--no-cache", "--format", "json"]):
        copied = subprocess.run(
            [sys.executable, "-c", "import sys, chainprofile.cli as c; "
             "print(c.__file__, file=sys.stderr); sys.exit(c.main(sys.argv[1:]))",
             *query], capture_output=True, text=True, env=env, cwd=elsewhere)
        assert copied.returncode == 0, copied.stderr
        assert copied.stderr.startswith(str(site / "chainprofile"))
        assert copied.stdout == _fresh_process("-m", "chainprofile.cli", *query).stdout


def grid_search_input(**options):
    """The grid under search-based bounded-bfs with the given options."""
    return {"dim": 2, "presentation": "<a, b | a b a^-1 b^-1>",
            "oracle": {"kind": "bounded-bfs", **options}}


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--input", "missing", "--no-cache")
    assert code == 2 and "error:" in err

    code, _, err = run(capsys, "psi", "--input", "zmod2", "-n", "4",
                       "--no-cache")
    assert code == 6

    code, _, err = run(capsys, "finite-profile", "--input", "z2", "-n", "4",
                       "--no-cache")
    assert code == 6

    code, _, err = run(capsys, "fv", "--input", "z2", "--no-cache",
                       "--chain", "3*" + SQUARE.replace(" + ", " + 3*").replace(" - ", " - 3*"),
                       "--fill-cap", "2")
    assert code == 4

    code, _, err = run(capsys, "fv", "--input", "z2", "--no-cache",
                       "--chain", "(1, nope)")
    assert code == 2

    # outside C'(1/6), radius 0 leaves Undecided every nonempty word the
    # abelianization does not settle
    undecided = tmp_path / "grid_radius0.json"
    undecided.write_text(json.dumps(grid_search_input(radius=0)))
    code, _, err = run(capsys, "validate", "--input", str(undecided), "--no-cache")
    assert code == 3


def test_weak_oracle_stops_the_enumeration(tmp_path, capsys):
    # cells are matched across every chain grown, so a radius too small to
    # tell the cell words apart stops the enumeration
    path = tmp_path / "grid_radius2.json"
    path.write_text(json.dumps(grid_search_input(radius=2)))
    code, _, err = run(capsys, "enumerate", "--input", str(path), "--chain-dim", "2",
                       "--max-norm", "3", "--no-cache")
    assert code == 3 and "error: oracle could not decide" in err


@pytest.mark.parametrize("option, value", [
    ("sufficient_len", "abc"), ("radius", "x"), ("node_cap", -5)])
def test_bad_bounded_bfs_values_are_input_errors(tmp_path, capsys, option, value):
    path = tmp_path / "dihedral.json"
    path.write_text(json.dumps({
        "dim": 2, "presentation": "<a, b | a^2, b^2>",
        "oracle": {"kind": "bounded-bfs", option: value}}))
    for argv in (("validate",), ("psi", "-n", "6")):
        code, _, err = run(capsys, *argv, "--input", str(path), "--no-cache")
        assert code == 2 and option in err, err


ZMOD2_TABLE = {"kind": "finite-table", "elements": ["e", "a"], "table": [[0, 1], [1, 0]],
               "generator_map": {"a": 1}}
LOOP = [{"dim": 0, "id": "v"},
        {"dim": 1, "id": "e", "boundary": [{"word": "1", "base": "v", "coeff": -1},
                                           {"word": "a", "base": "v", "coeff": 1}]}]


def _edge(**change):
    """The one-loop cells with the edge entry changed."""
    return {"cells": [LOOP[0], {**LOOP[1], **change}]}


def _edge_term(**change):
    """The one-loop cells with the edge's second boundary term changed."""
    terms = LOOP[1]["boundary"]
    return _edge(boundary=[terms[0], {**terms[1], **change}])


# changes to the description {"dim": 2, "presentation": "<a |>", "oracle": free}
MALFORMED = {
    "no-generators": {"presentation": {"relators": ["a"]}},
    "generator-not-string": {"presentation": {"generators": [1]}},
    "generators-string": {"presentation": {"generators": "ab"}},
    "relator-not-string": {"presentation": {"generators": ["a"], "relators": [1]}},
    "relators-string": {"presentation": {"generators": ["a"], "relators": "aa"}},
    "elements-not-list": {"presentation": "<a | a^2>",
                          "oracle": {**ZMOD2_TABLE, "elements": 2}},
    "generator-map-list": {"presentation": "<a | a^2>",
                           "oracle": {**ZMOD2_TABLE, "generator_map": ["a"]}},
    "generator-map-string-index": {"presentation": "<a | a^2>",
                                   "oracle": {**ZMOD2_TABLE, "generator_map": {"a": "1"}}},
    "generator-map-bool-index": {"presentation": "<a | a^2>",
                                 "oracle": {**ZMOD2_TABLE, "generator_map": {"a": True}}},
    "cell-dim-string": _edge(dim="1"),
    "cell-dim-bool": _edge(dim=True),
    "cell-id-list": _edge(id=["e"]),
    "boundary-not-list": _edge(boundary=5),
    "coeff-string": _edge_term(coeff="1"),
    "coeff-bool": _edge_term(coeff=True),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_inputs_are_input_errors(tmp_path, capsys, case):
    # main returns exit 2 with an error line, rather than raising
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"dim": 2, "presentation": "<a |>", "oracle": {"kind": "free"},
                                **MALFORMED[case]}))
    code, _, err = run(capsys, "validate", "--input", str(path), "--no-cache")
    assert code == 2 and err.startswith("error: "), err


BASE_INPUT = {"dim": 2, "presentation": "<a |>", "oracle": {"kind": "free"}}
ZMOD2_INPUT = {**BASE_INPUT, "presentation": "<a | a^2>", "oracle": ZMOD2_TABLE}


def _table(**change):
    """The order-two table input with its oracle config changed."""
    return {**ZMOD2_INPUT, "oracle": {**ZMOD2_TABLE, **change}}


# input files that load_input refuses, with the exit code and error line they give
REFUSED = {
    "json-list": ([], 2, "input description must be a JSON object"),
    "dim-string": ({**BASE_INPUT, "dim": "2"}, 2, "dim must be an integer"),
    "oracle-string": ({**BASE_INPUT, "oracle": "free"}, 2, "oracle config must be an object"),
    "cells-object": ({**BASE_INPUT, "cells": {}}, 2, "cells must be a list"),
    "cell-without-id": ({**BASE_INPUT, "cells": [{"dim": 0}]}, 2,
                        "malformed cell entry {'dim': 0}"),
    "term-without-coeff": (
        {**BASE_INPUT, **_edge(boundary=[LOOP[1]["boundary"][0], {"word": "a", "base": "v"}])},
        2, "malformed boundary term {'word': 'a', 'base': 'v'}"),
    "dim-1": ({**BASE_INPUT, "dim": 1}, 5, "dimension must be at least 2, got 1"),
    "dim-1-with-cells": ({**BASE_INPUT, "dim": 1, "cells": LOOP}, 5,
                         "dimension must be at least 2, got 1"),
    "cell-dim-3": ({**BASE_INPUT, **_edge(dim=3)}, 5, "cell 'e' has dimension 3 outside 0..2"),
    "vertex-boundary": ({**BASE_INPUT, "cells": [{**LOOP[0], "boundary": LOOP[1]["boundary"]},
                                                 LOOP[1]]},
                        5, "vertex 'v' has a boundary"),
    "unknown-boundary-cell": ({**BASE_INPUT, **_edge_term(base="w")}, 5,
                              "cell 'e' boundary references unknown cell 'w'"),
    "repeated-element": (_table(elements=["x", "x"]), 2,
                         "element name 'x' appears more than once"),
    "table-shape": (_table(table=[[0, 1]]), 2,
                    "multiplication table shape does not match elements"),
    "table-column": (_table(table=[[0, 1], [0, 1]]), 2,
                     "table column is not a permutation of the elements"),
    "table-without-identity": (
        _table(elements=["x", "y", "z"], table=[[0, 2, 1], [2, 1, 0], [1, 0, 2]]), 2,
        "table has no two-sided identity"),
    "generator-outside-table": (_table(generator_map={"a": 2}), 2,
                                "generator 'a' maps outside the table"),
    "table-missing": ({**ZMOD2_INPUT, "oracle": {"kind": "finite-table", "elements": ["e", "a"],
                                                 "generator_map": {"a": 1}}},
                      2, "finite-table oracle config missing 'table'"),
    "unknown-policy": ({**BASE_INPUT, "oracle": {"kind": "bounded-bfs", "policy": "triple"}},
                       2, "unknown radius policy 'triple'"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_input_files_name_the_fault(tmp_path, capsys, case):
    data, exit_code, message = REFUSED[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", "--input", str(path), "--no-cache")
    assert (code, out, err) == (exit_code, "", f"error: {message}\n")


def test_unreadable_files_and_chain_literals_are_input_errors(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--input", str(tmp_path), "--no-cache")
    assert code == 2 and err.startswith("error: cannot read input file: "), err
    code, _, err = run(capsys, "chain2-bound", "--delta", str(tmp_path / "missing.txt"))
    assert code == 2 and err.startswith("error: cannot read table file: "), err
    code, _, err = run(capsys, "fv", "--input", "z2", "--chain", "a, e_a", "--no-cache")
    assert (code, err) == (2, "error: expected '(' at position 0 of chain literal\n")


Z3_INPUT = {"dim": 2, "presentation": "<a, b, c | a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1>",
            "oracle": {"kind": "abelian"}}


@pytest.mark.parametrize("data, chain", [
    ("z2", "(1, e_a)"),             # inside the rewriting gate
    (Z3_INPUT, "(1, e_a)"),         # three relators: the search
    ("surface2", "(1, e_a)"),       # bounded-bfs, no normal forms
    ("zmod2", "(1, e_a)"),          # a finite table
    (three_torus_input(), "(1, f_ab)"),
])
def test_a_chain_that_is_not_a_cycle_is_refused(tmp_path, capsys, data, chain):
    # a 1-chain is refused as its walks are split, a 2-chain by its boundary
    if isinstance(data, dict):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        data = str(path)
    code, out, err = run(capsys, "fv", "--input", data, "--chain", chain, "--no-cache")
    assert (code, out, err) == (2, "", "error: filling target is not a cycle\n")


def test_fv_reads_a_1_cycle_once(tmp_path, capsys, monkeypatch):
    # the split into walks is the cycle check: no boundary chain is built
    from chainprofile import profiles

    path = tmp_path / "in.json"
    path.write_text(json.dumps(Z3_INPUT))
    s, oracle = load_example("surface2")
    octagon = format_chain(profiles.boundary(parse_chain("(1, f0)", s, oracle), s, oracle), s)
    monkeypatch.setattr(profiles, "boundary", None)
    for data, chain in (("z2", SQUARE), (str(path), SQUARE), ("surface2", octagon)):
        code, out, _ = run(capsys, "fv", "--input", data, "--chain", chain, "--no-cache")
        assert (code, out.splitlines()[0]) == (0, "filling volume 1")


def test_zero_cycle_has_the_zero_filling(capsys):
    code, out, _ = run(capsys, "fv", "--input", "z2", "--chain", "(1, e_a) - (1, e_a)",
                       "--no-cache")
    assert (code, out) == (0, "filling volume 0\nfilling: 0\n")


def test_the_printed_zero_chain_is_refused_by_name(capsys):
    # "0" is how the zero chain prints, but it names no dimension to parse into
    code, out, err = run(capsys, "fv", "--input", "z2", "--chain", " 0 ", "--no-cache")
    assert (code, out, err) == (
        2, "", "error: chain literal '0' is the zero chain, which has no dimension; "
               "write it as terms that cancel, such as '(1, c) - (1, c)'\n")


DIM4_NOTE = ("note: in dimension 4 and above this profile is equivalent up to scaling "
             "to the manifold-type isoperimetric profile of the group: the same "
             "growth, not the same values")


@pytest.mark.parametrize("command", ["psi", "phi"])
def test_dimension_4_note_ends_the_human_table(tmp_path, capsys, command):
    path = tmp_path / "dim4.json"
    path.write_text(json.dumps({"dim": 4, "presentation": "<a | >",
                                "oracle": {"kind": "free"}, "cells": LOOP}))
    out = {}
    for fmt in ("human", "json", "csv"):
        code, out[fmt], _ = run(capsys, command, "--input", str(path), "-n", "2",
                                "--no-cache", "--format", fmt)
        assert code == 0
    assert out["human"] == f"0  0\n1  0\n2  0\n{DIM4_NOTE}\n"
    assert "note" not in out["json"] + out["csv"]


@pytest.mark.parametrize("option, value, low", [
    ("--fill-cap", "-1", 0), ("--node-cap", "0", 1), ("--node-cap", "-5", 1),
    ("--workers", "0", 1), ("--workers", "-3", 1)])
def test_budget_options_below_their_bounds_are_usage_errors(capsys, option, value, low):
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--input", "z2", "-n", "2", "--no-cache", option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be at least {low}, got {value}" in err
    # the bound itself parses; one walk is too few for psi(2)
    code, _, err = run(capsys, "psi", "--input", "z2", "-n", "2", "--no-cache",
                       option, str(low))
    assert code == (4 if option == "--node-cap" else 0), err


@pytest.mark.parametrize("argv, option, value, low", [
    (("psi", "--input", "z2"), "-n/--max-size", "-1", 0),
    (("phi", "--input", "z2"), "-n/--max-size", "-4", 0),
    (("finite-profile", "--input", "zmod2"), "-n/--max-size", "-1", 0),
    (("disk-bound", "--delta", "delta.txt"), "--parts", "0", 1),
    (("disk-bound", "--delta", "delta.txt"), "--parts", "-2", 1)])
def test_sizes_below_their_bounds_are_refused_before_loading(
        capsys, monkeypatch, argv, option, value, low):
    from chainprofile import cli

    def unread(source):
        raise AssertionError(f"{source} was read")
    monkeypatch.setattr(cli, "input_text", unread)
    monkeypatch.setattr(cli, "read_delta", unread)
    with pytest.raises(SystemExit) as exc:
        main([*argv, option.split("/")[0], value])
    assert exc.value.code == 2
    assert f"argument {option}: must be at least {low}, got {value}" in capsys.readouterr().err


def test_a_size_that_is_not_a_number_is_an_invalid_int(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--input", "z2", "-n", "six"])
    assert exc.value.code == 2
    assert "argument -n/--max-size: invalid int value: 'six'" in capsys.readouterr().err


def test_negative_max_norm_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--input", "z2", "--chain-dim", "1", "--max-norm", "-3",
              "--no-cache"])
    assert exc.value.code == 2
    assert "argument --max-norm: must be at least 0, got -3" in capsys.readouterr().err
    code, out, _ = run(capsys, "enumerate", "--input", "z2", "--chain-dim", "1",
                       "--max-norm", "0", "--no-cache")
    assert code == 0 and "norm at most 0" in out


@pytest.mark.parametrize("max_norm, count", [(0, 0), (1, 2)])
def test_a_loop_edge_takes_no_step_past_the_max_norm(tmp_path, capsys, max_norm, count):
    # the relator a makes edge a a loop of the cover: a closed walk of one step
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"dim": 2, "presentation": "<a, b | a>",
                                "oracle": {"kind": "bounded-bfs"}}))
    code, out, err = run(capsys, "enumerate", "--input", str(path), "--chain-dim", "1",
                         "--max-norm", str(max_norm), "--cycles", "--no-cache")
    assert code == 0 and not err
    assert out.startswith(f"{count} connected cycles")


SRC = os.path.dirname(os.path.dirname(os.path.abspath(chainprofile.__file__)))


def _fresh_process(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


def test_reused_parser_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    from chainprofile.cli import _parsed

    _parsed.cache_clear()
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(grid_search_input()))
    queries = [
        ("fv", "--input", "z2", "--chain", SQUARE, "--format", "json"),
        ("fv", "--input", str(grid), "--chain", SQUARE),
        ("psi", "--input", "z2", "-n", "6"),
        ("phi", "--input", "z2", "-n", "6", "--format", "csv"),
        ("finite-profile", "--input", "zmod2", "-n", "4"),
        ("validate", "--input", "z2"),
        ("validate", "--input", str(grid), "--format", "json"),
        ("enumerate", "--input", "z2", "--chain-dim", "1", "--max-norm", "4",
         "--cycles", "--list"),
        ("psi", "--input", "z2", "-n", "six"),
        ("validate", "--input", "missing"),
    ]
    # each query twice against one cache: the second call finds its input
    # parsed and its answer cached, and must still print what a fresh
    # process prints
    for i, query in enumerate(queries):
        for attempt in ("cold", "warm"):
            argv = [*query, "--cache", str(tmp_path / f"in-process-{i}")]
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            got = capsys.readouterr()
            argv[-1] = str(tmp_path / f"fresh-{i}")
            fresh = _fresh_process("-m", "chainprofile.cli", *argv)
            assert (code, got.out, got.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), (query, attempt)


def test_verbose_logs_the_finite_sweep_levels_to_stderr():
    # a fresh process: pytest puts its own handlers on the root logger
    query = ("-m", "chainprofile.cli", "finite-profile", "--input", "zmod2",
             "-n", "6", "--no-cache")
    quiet, verbose = _fresh_process(*query), _fresh_process(*query, "-v")
    assert quiet.stdout == verbose.stdout
    assert "finite filling sweep level" not in quiet.stderr
    levels = [line for line in verbose.stderr.splitlines()
              if "finite filling sweep level" in line]
    assert len(levels) == 3 and levels[-1].endswith(" 0 cycles pending")
    assert all(line.startswith("DEBUG:chainprofile.profiles:") for line in levels)


@pytest.mark.parametrize("query", [
    ("psi", "--input", "z2", "-n", "2", "--no-cache"),
    ("finite-profile", "--input", "zmod2", "-n", "6", "--format", "json", "--no-cache")],
    ids=["short", "long"])
def test_closed_pipe_exits_1_without_a_traceback(query):
    # the reader is gone before the command writes: short output fails at
    # the flush in main, long output at a print
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "chainprofile.cli", *query],
                              stdout=w, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def _delta_file(tmp_path):
    path = tmp_path / "delta.txt"
    path.write_text("0 1 1 2 2")
    return str(path)


# each command with the options of one small query; -v where it is accepted
COMMANDS = {
    "examples": lambda tmp: ["examples"],
    "validate": lambda tmp: ["validate", "--input", "z2", "-v"],
    "enumerate": lambda tmp: ["enumerate", "--input", "z2", "--chain-dim", "1",
                              "--max-norm", "4", "--cycles", "-v"],
    "fv": lambda tmp: ["fv", "--input", "z2", "--chain", SQUARE, "--cache", str(tmp), "-v"],
    "psi": lambda tmp: ["psi", "--input", "z2", "-n", "4", "--cache", str(tmp), "-v"],
    "phi": lambda tmp: ["phi", "--input", "f2", "-n", "4", "--cache", str(tmp), "-v"],
    "finite-profile": lambda tmp: ["finite-profile", "--input", "zmod2", "-n", "4",
                                   "--cache", str(tmp), "-v"],
    "chain2-bound": lambda tmp: ["chain2-bound", "--delta", _delta_file(tmp)],
    "disk-bound": lambda tmp: ["disk-bound", "--delta", _delta_file(tmp), "--parts", "2"],
}
# examples has no csv format
FORMATS = [(name, fmt) for name in COMMANDS for fmt in ("human", "json", "csv")
           if not (fmt == "csv" and name == "examples")]


@pytest.mark.parametrize("name, fmt", FORMATS, ids=[f"{n}-{f}" for n, f in FORMATS])
def test_every_command_prints_each_format(tmp_path, capsys, name, fmt):
    code, out, _ = run(capsys, *COMMANDS[name](tmp_path), "--format", fmt)
    assert code == 0 and out.strip()
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)


def _input_commands():
    from chainprofile.cli import COMMANDS, _command_parser

    return sorted(name for name in COMMANDS if "--input" in _command_parser(name).format_usage())


@pytest.mark.parametrize("name", _input_commands())
def test_every_input_command_takes_the_benchmark_options(tmp_path, capsys, name):
    # benchmark/worker.py appends these options to every query it runs
    code, out, _ = run(capsys, *COMMANDS[name](tmp_path),
                       "--format", "json", "--workers", "1", "--cache", str(tmp_path))
    assert code == 0
    json.loads(out)


# what the parser tree printed for help, --version and usage errors, each
# case as a command line
TREE_CASES = [
    ["--help"], *([name, "--help"] for name in (
        "examples", "validate", "enumerate", "fv", "psi", "phi", "finite-profile",
        "chain2-bound", "disk-bound")),
    [], ["bogus"], ["--version"],
    ["examples", "--format", "csv"],
    ["validate"],
    ["enumerate", "--input", "z2", "--chain-dim", "x", "--max-norm", "2"],
    ["fv", "--input", "z2"],
    ["psi", "--input", "z2", "-n", "six"],
    ["phi", "--input", "z2", "-n", "-4"],
    ["finite-profile", "--input", "zmod2"],
    ["chain2-bound", "--delta", "x", "--parts", "2"],
    ["disk-bound", "--delta", "x", "--parts", "0"],
    # arguments the command does not take, and options before the command
    ["psi", "--input", "z2", "-n", "2", "--bogus", "x"],
    ["psi", "--input", "z2", "-n", "2", "--", "x"],
    ["examples", "extra"], ["psi", "--version"], ["--input", "z2", "psi"],
    ["-h", "psi"], ["--version", "psi"], ["-v"],
    ["psi", "--input", "z2", "-n", "2", "--=x"],
]


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", TREE_CASES, ids=" ".join)
def test_help_and_usage_errors_are_the_tree_s(capsys, monkeypatch, argv):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    from cli_reference import reference_parser

    want = _exit(reference_parser().parse_args, argv, capsys)
    assert want[0] in (0, 2) and (want[1] or want[2])
    assert _exit(main, argv, capsys) == want


def test_parsed_arguments_are_the_tree_s(tmp_path):
    from chainprofile.cli import _parse_args
    from cli_reference import reference_parser

    for argv in [*([*COMMANDS[name](tmp_path), "--format", fmt] for name, fmt in FORMATS),
                 ["psi", "--inp", "z2", "-n", "2", "--no-c", "--fill=3", "--node-cap", "9"],
                 ["examples", "--form", "json"],
                 ["enumerate", "--input=f2", "--chain-dim", "1", "--max-norm", "0", "--list"]]:
        assert vars(_parse_args(argv)) == vars(reference_parser().parse_args(argv)), argv


def test_a_command_builds_only_its_own_parser():
    probe = _fresh_process("-c", """if True:
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)
        argparse.ArgumentParser.__init__ = record
        from chainprofile.cli import main
        for n in ("2", "3"):
            main(["psi", "--input", "z2", "-n", n, "--no-cache"])
        print(built)
        try:
            main(["bogus"])
        except SystemExit:
            print(built)
        """)
    *_, psi_only, after_bogus = probe.stdout.splitlines()
    assert psi_only == "['chainprofile psi']"
    # an unknown command builds the whole tree: the top-level parser, and
    # each command's parser with its copy as a subparser
    built = ast.literal_eval(after_bogus)
    assert sorted(built) == sorted(["chainprofile", *(2 * [f"chainprofile {name}"
                                                          for name in COMMANDS])])


# every JSON-producing command, enumerate with its chain listing
JSON_COMMANDS = {**COMMANDS, "enumerate": lambda tmp: [*COMMANDS["enumerate"](tmp), "--list"]}


@pytest.mark.parametrize("name", JSON_COMMANDS)
def test_json_output_is_the_indented_sorted_encoding(tmp_path, capsys, name):
    # scripts may hash `--format json` output: it is exactly what
    # json.dumps(indent=2, sort_keys=True) prints, cold and from the cache
    for attempt in ("cold", "warm"):
        code, out, _ = run(capsys, *JSON_COMMANDS[name](tmp_path), "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", attempt


# ------------------------------------------------------------- JSON emitter

ODD_TEXTS = ["", "plain", "caf\u00e9", "\u03c8(8)", "\U0001d4b3", "\ud800", 'say "hi"',
             "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f", "</script>"]
ODD_NUMBERS = [0, 1, -1, 2 ** 70, -(2 ** 70), 0.0, -0.0, 0.1, -2.5, 1e300, 1e-300,
               math.inf, -math.inf, math.nan]


def _random_leaf(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(ODD_TEXTS) + "".join(
            chr(rng.randrange(0x20, 0x500)) for _ in range(rng.randrange(4)))
    if kind == 1:
        return rng.randrange(-10 ** 6, 10 ** 6)
    if kind == 2:
        return rng.choice([rng.uniform(-1e6, 1e6), *ODD_NUMBERS])
    return [True, False, None][kind - 3]


def _random_keys(rng, size):
    # one kind of key per dict: json cannot sort str beside numbers or None
    kind = rng.randrange(4)
    if kind == 0:
        return [rng.choice(ODD_TEXTS) + str(i) for i in range(size)]
    if kind == 1:
        return [rng.randrange(-50, 50) for _ in range(size)]
    if kind == 2:
        return [rng.choice([True, False, rng.randrange(-3, 3), rng.uniform(-3, 3),
                            math.inf, -0.0]) for _ in range(size)]
    return [None]


def _random_document(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _random_leaf(rng)
    size = rng.randrange(4)
    kind = rng.randrange(3)
    items = [_random_document(rng, depth - 1) for _ in range(size)]
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    return dict(zip(_random_keys(rng, size), items))


def test_the_emitter_matches_json_on_random_documents():
    rng = random.Random(20090113)
    for _ in range(400):
        doc = _random_document(rng, 5)
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True), doc


@pytest.mark.parametrize("doc", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()], ((),), {"": ""},
    [True, 1, False, 0, 1.0, 0.0], None, "", 0, 1.5,
    [-1, -(10 ** 40), 10 ** 40, 2 ** 63], [math.nan, math.inf, -math.inf, -0.0, 1e16],
    ODD_TEXTS, {t: t for t in ODD_TEXTS},
    {3: "a", -2: "b", 2.5: "c", True: "d", False: "e"}, {None: 1}, {math.nan: 0},
    {2: {1: {0: []}}}, {"b": (1, (2, [3])), "a": {"z": {}, "y": [None]}},
], ids=repr)
def test_the_emitter_matches_json_on_edge_cases(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


# a bare object's repr holds its address, which differs on every run,
# so that case is named by how it is made
@pytest.mark.parametrize("doc", [
    pytest.param(object(), id="object()"), [1, {2}], {(1,): 2}, {"a": 1, 2: "b"},
], ids=repr)
def test_the_emitter_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text(doc)


# modules no query needs at start-up: the worker pool is imported on
# first use, and the value classes are written without `dataclasses`,
# which would bring in `inspect`, `ast` and `dis`
@pytest.mark.parametrize("module", ["multiprocessing", "dataclasses", "inspect", "ast", "dis"])
def test_import_leaves_module_out(module):
    probe = _fresh_process(
        "-c", f"import sys, chainprofile.cli; print({module!r} in sys.modules)",
        check=True)
    assert probe.stdout.strip() == "False"


# ---------------------------------------------------------------- input memo

@pytest.fixture
def parsed(monkeypatch):
    """The CLI's input memo, emptied, with a log of the texts it parses."""
    from chainprofile import cli

    cli._parsed.cache_clear()
    log = []
    real = cli.load_input
    monkeypatch.setattr(cli, "load_input", lambda data: log.append(data) or real(data))
    yield log
    cli._parsed.cache_clear()


def _validate(capsys, path):
    code, out, err = run(capsys, "validate", "--input", str(path), "--no-cache",
                         "--format", "json")
    return code, json.loads(out) if code == 0 else err


def test_two_calls_on_one_file_parse_it_once(tmp_path, capsys, parsed):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_search_input()))
    first = _validate(capsys, path)
    code, out, _ = run(capsys, "fv", "--input", str(path), "--chain", SQUARE, "--no-cache")
    assert first[0] == code == 0 and out.startswith("filling volume 1\n")
    assert _validate(capsys, path) == first
    assert len(parsed) == 1


def test_a_rewritten_file_is_parsed_again(tmp_path, capsys, parsed):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(grid_search_input()))
    _, grid = _validate(capsys, path)
    path.write_text(json.dumps({**BASE_INPUT, "presentation": "<a, b>"}))
    _, free = _validate(capsys, path)
    assert (grid["cells"]["2"], free["cells"]["2"]) == (1, 0)
    assert grid["fingerprint"] != free["fingerprint"]
    assert len(parsed) == 2


def test_a_refused_file_is_not_remembered(tmp_path, capsys, parsed):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(BASE_INPUT)[:-1])
    code, err = _validate(capsys, path)
    assert code == 2 and err.startswith("error: input file is not valid JSON: "), err
    path.write_text(json.dumps({**BASE_INPUT, "dim": "2"}))
    assert _validate(capsys, path) == (2, "error: dim must be an integer\n")
    path.write_text(json.dumps(BASE_INPUT))
    code, info = _validate(capsys, path)
    assert code == 0 and info["oracle"] == "free"
    from chainprofile.cli import _parsed
    assert _parsed.cache_info().currsize == 1


def test_the_memo_holds_at_most_its_bound(tmp_path, capsys, parsed):
    from chainprofile.cli import _parsed

    bound = _parsed.cache_info().maxsize
    assert bound == 8
    for k in range(bound + 3):
        path = tmp_path / f"in-{k}.json"
        path.write_text(json.dumps({**BASE_INPUT, "presentation": f"<x{k}>"}))
        assert _validate(capsys, path)[0] == 0
        assert _parsed.cache_info().currsize == min(k + 1, bound)
    # the oldest input was dropped: asking for it again parses it again
    assert _validate(capsys, tmp_path / "in-0.json")[0] == 0
    assert len(parsed) == bound + 4


def test_the_library_loaders_build_fresh_objects(tmp_path):
    from chainprofile.inputs import load_input

    path = tmp_path / "z2.json"
    path.write_text(json.dumps(bundled_examples()["z2"]))
    for load, source in ((load_example, "z2"), (load_input, path)):
        (s1, o1), (s2, o2) = load(source), load(source)
        assert s1 is not s2 and o1 is not o2
        assert skeleton_fingerprint(s1, o1) == skeleton_fingerprint(s2, o2)


def test_the_fingerprint_serialises_each_skeleton_once(monkeypatch):
    from chainprofile.skeleton import SkeletonSpec

    s, oracle = load_example("z2")
    served = []
    real = SkeletonSpec.to_json_dict
    monkeypatch.setattr(SkeletonSpec, "to_json_dict",
                        lambda self: served.append(self) or real(self))
    fingerprints = {skeleton_fingerprint(s, oracle) for _ in range(3)}
    assert len(fingerprints) == 1 and served == [s]
    other, _ = load_example("z2")
    assert skeleton_fingerprint(other, oracle) in fingerprints
    assert served == [s, other]
