"""Input loading, chain literals, and the verified result cache."""

import copy
import hashlib
import json
import multiprocessing
import os

import pytest

from chainprofile.cache import (
    ResultCache,
    default_cache_dir,
    fv_key,
    profile_key,
    verify_fv_entry,
    verify_profile_entry,
)
from chainprofile.enumeration import connected_cycles_up_to_action
from chainprofile.errors import InputError, ParseError
from chainprofile.inputs import (
    bundled_examples,
    format_chain,
    load_example,
    load_input,
    parse_chain,
    read_delta,
)
from chainprofile.profiles import (
    Budget,
    _check_delta,
    _finite_chain,
    finite_profile,
    minimal_filling,
    psi_table,
)
from chainprofile.skeleton import (
    Chain,
    _aligned_units,
    _find_component,
    add_chains,
    boundary,
    chain_from_json,
    chain_to_json,
    chains_equal,
    is_connected,
    norm,
    scale_chain,
    translate,
    validate,
)
from chainprofile.words import parse_word


def test_bundled_examples_load_and_validate():
    names = set(bundled_examples())
    assert names == {"f2", "z2", "zmod2", "surface2"}
    for name in ("f2", "z2", "zmod2"):
        s, oracle = load_example(name)
        assert s.q == 2
        assert validate(s, oracle)


def test_load_input_from_file(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({
        "dim": 2,
        "presentation": {"generators": ["a", "b"],
                         "relators": ["a b a^-1 b^-1"]},
        "oracle": {"kind": "abelian"},
    }))
    s, oracle = load_input(str(path))
    assert s.n_cells(2) == 1
    assert oracle.name == "abelian"


def test_load_input_with_explicit_cells():
    s, oracle = load_input({
        "dim": 2,
        "presentation": "<a |>",
        "oracle": {"kind": "free"},
        "cells": [
            {"dim": 0, "id": "v"},
            {"dim": 1, "id": "e",
             "boundary": [{"word": "1", "base": "v", "coeff": -1},
                          {"word": "a", "base": "v", "coeff": 1}]},
        ],
    })
    assert s.n_cells(1) == 1
    assert s.n_cells(2) == 0


def test_load_input_errors(tmp_path):
    with pytest.raises(InputError):
        load_input({"dim": 2, "presentation": "<a |>"})
    with pytest.raises(InputError):
        load_input({"dim": 3, "presentation": "<a |>", "oracle": {"kind": "free"}})
    with pytest.raises(InputError):
        load_input({"dim": 2, "presentation": 7, "oracle": {"kind": "free"}})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InputError):
        load_input(str(bad))
    with pytest.raises(InputError):
        load_example("nope")


def test_load_example_reads_only_its_file(tmp_path, monkeypatch):
    (tmp_path / "z2.json").write_text(json.dumps(bundled_examples()["z2"]))
    (tmp_path / "broken.json").write_text("{nope")
    monkeypatch.setattr("chainprofile.inputs._DATA", str(tmp_path))
    s, oracle = load_example("z2")
    assert s.n_cells(2) == 1
    with pytest.raises(InputError, match="available: broken, z2$"):
        load_example("nope")


def test_chain_literal_round_trip():
    s, oracle = load_example("z2")
    text = "2*(a b, e_b) - (1, e_a) + 3*(b^-1, e_a)"
    a = parse_chain(text, s, oracle)
    assert norm(a) == 2 + 1 + 3
    again = parse_chain(format_chain(a, s), s, oracle)
    assert chains_equal(a, again, oracle)


def test_chain_literal_merges_duplicates():
    s, oracle = load_example("z2")
    a = parse_chain("(1, e_a) + 2*(1, e_a)", s, oracle)
    assert norm(a) == 3
    b = parse_chain("(1, e_a) - (1, e_a)", s, oracle)
    assert not b.terms


def test_chain_literal_errors():
    s, oracle = load_example("z2")
    for text in ("", "(1, nope)", "(1; e_a)", "2(1, e_a)",
                 "(1, e_a) (a, e_a)", "(1, e_a) + (1, f0)", "(1, e_a"):
        with pytest.raises(InputError):
            parse_chain(text, s, oracle)


# each refusal of a chain literal over z2, with its message
LITERAL_ERRORS = {
    "   ": "empty chain literal",
    "0": "chain literal '0' is the zero chain, which has no dimension; "
         "write it as terms that cancel, such as '(1, c) - (1, c)'",
    "(1, e_a) (a, e_a)": "chain terms must be joined with + or -",
    "(1, e_a) 2*(a, e_a)": "chain terms must be joined with + or -",
    "2(1, e_a)": "expected '*' between coefficient and cell",
    "- 2 (1, e_a)": "expected '*' between coefficient and cell",
    "a, e_a": "expected '(' at position 0 of chain literal",
    "(1, e_a) - ": "expected '(' at position 10 of chain literal",
    "+ -(1, e_a)": "expected '(' at position 2 of chain literal",
    "2*3*(1, e_a)": "expected '(' at position 2 of chain literal",
    "2 * -(1, e_a)": "expected '(' at position 4 of chain literal",
    "(1, e_a": "unbalanced parenthesis in chain literal",
    "(a (b), e_a)": "unbalanced parenthesis in chain literal",
    "2*(1, e_a) - 3*(a": "unbalanced parenthesis in chain literal",
    "(1; e_a)": "term '1; e_a' needs the form (word, cell)",
    "(1, nope)": "unknown cell id 'nope'",
    "(1, e_a) - (b, nope) - (": "unknown cell id 'nope'",
    "(1, e_a) + (1, f0)": "cell 'f0' has dimension 2, chain says 1",
    "(1, x, e_a)": "unexpected token ',' in word '1, x'",
    "(c, e_a)": "unknown generator in 'c'",
    "(^2, e_a)": "power with nothing to apply it to in '^2'",
}


@pytest.mark.parametrize("text", LITERAL_ERRORS)
def test_each_chain_literal_refusal_names_its_fault(text):
    s, oracle = load_example("z2")
    with pytest.raises(ParseError) as refused:
        parse_chain(text, s, oracle)
    assert str(refused.value) == LITERAL_ERRORS[text]


def test_chain_literals_take_any_spacing_signs_and_coefficients():
    s, oracle = load_example("z2")
    expected = parse_chain("2*(a b, e_b) - (1, e_a) + 0*(b, e_a)", s, oracle)
    for text in ("2*(a b,e_b)-(1,e_a)+0*(b,e_a)", "\t+ 2 *\n( a  b , e_b )\u00a0- ( 1 , e_a )",
                 "-(1, e_a) + 02*(ab, e_b)"):
        assert parse_chain(text, s, oracle) == expected


def test_read_delta(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("0, 1, 1\n2 3\n")
    assert read_delta(str(f)) == [0, 1, 1, 2, 3]
    f.write_text("0 x 1")
    with pytest.raises(InputError):
        read_delta(str(f))
    f.write_text("")
    with pytest.raises(InputError):
        read_delta(str(f))


def test_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    assert cache.get("k") is None
    cache.put("k", {"values": [1, 2]})
    assert cache.get("k") == {"values": [1, 2]}
    fresh = ResultCache(str(tmp_path / "c"))
    assert fresh.get("k") == {"values": [1, 2]}
    fresh.evict("k")
    assert ResultCache(str(tmp_path / "c")).get("k") is None


def test_cache_file_bytes_are_pinned(tmp_path):
    # the entry text is one sorted-key JSON line: caches written before and
    # after a change of encoder read the same
    cache = ResultCache(str(tmp_path))
    cache.put("k:\u00e9", {"values": [0, 1], "b": None,
                           "a": {"z": 1.5, "y": [True, "\u00e9"]}})
    (entry,) = tmp_path.glob("*.json")
    assert entry.name == hashlib.sha256("k:\u00e9".encode()).hexdigest() + ".json"
    assert entry.read_bytes() == (
        b'{"key": "k:\\u00e9", "value": {"a": {"y": [true, "\\u00e9"], '
        b'"z": 1.5}, "b": null, "values": [0, 1]}}')


def test_failed_put_removes_its_temp_file(tmp_path, monkeypatch):
    cache = ResultCache(str(tmp_path))

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr("chainprofile.cache.os.replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        cache.put("k", {"v": 1})
    assert list(tmp_path.iterdir()) == []


def test_corrupt_cache_is_discarded(tmp_path, caplog):
    d = tmp_path / "c"
    ResultCache(str(d)).put("k", 0)
    (entry,) = d.glob("*.json")
    entry.write_text("{broken")
    cache = ResultCache(str(d))
    with caplog.at_level("WARNING", logger="chainprofile.cache"):
        assert cache.get("k") is None
    assert "unreadable" in caplog.text
    cache.put("k", 1)
    assert json.loads(entry.read_text())["value"] == 1
    assert ResultCache(str(d)).get("k") == 1


def test_foreign_files_are_misses(tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    (d / "cache.json").write_text(json.dumps(
        {"version": 1, "entries": {"a": 1, "b": 2}}))
    cache = ResultCache(str(d))
    assert cache.get("a") is None
    cache.put("a", 1)
    (entry_a,) = set(d.glob("*.json")) - {d / "cache.json"}
    cache.put("b", 2)
    (entry_b,) = set(d.glob("*.json")) - {d / "cache.json", entry_a}
    entry_b.write_text(entry_a.read_text())
    assert cache.get("b") is None
    assert cache.get("a") == 1


def test_two_handles_keep_both_puts(tmp_path):
    c1 = ResultCache(str(tmp_path))
    c2 = ResultCache(str(tmp_path))
    assert c1.get("a") is None and c2.get("b") is None
    c1.put("a", 1)
    c2.put("b", 2)
    fresh = ResultCache(str(tmp_path))
    assert (fresh.get("a"), fresh.get("b")) == (1, 2)


def _put_keys(directory, worker):
    cache = ResultCache(directory)
    for i in range(25):
        cache.put(f"{worker}:{i}", [worker, i])


def test_concurrent_processes_keep_every_entry(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_put_keys, args=(str(tmp_path), w))
             for w in range(4)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
    assert not any(p.is_alive() for p in procs)
    assert all(p.exitcode == 0 for p in procs)
    cache = ResultCache(str(tmp_path))
    for w in range(4):
        for i in range(25):
            assert cache.get(f"{w}:{i}") == [w, i]


def test_default_cache_dir_env(monkeypatch):
    monkeypatch.setenv("CHAINPROFILE_CACHE_DIR", "/tmp/somewhere")
    assert default_cache_dir() == "/tmp/somewhere"
    monkeypatch.delenv("CHAINPROFILE_CACHE_DIR")
    assert default_cache_dir().endswith(os.path.join(".cache", "chainprofile"))


def test_keys_separate_budgets_and_inputs():
    b1, b2 = Budget(), Budget(fill_volume_cap=5)
    assert profile_key("psi", "f" * 16, 6, b1) != profile_key("psi", "f" * 16, 6, b2)
    assert profile_key("psi", "f" * 16, 6, b1) != profile_key("phi", "f" * 16, 6, b1)
    assert fv_key("f" * 16, {"dim": 1, "terms": []}, b1) != fv_key(
        "f" * 16, {"dim": 1, "terms": [1]}, b1)


def test_profile_entry_verification_catches_tampering():
    s, oracle = load_example("z2")
    table = psi_table(s, oracle, 6)
    entry = {"values": table.values, "witnesses": table.witnesses,
             "budget": table.budget}
    assert verify_profile_entry(entry, "psi", 6, s, oracle)
    bad = {"values": [v + 1 for v in table.values],
           "witnesses": table.witnesses, "budget": table.budget}
    assert not verify_profile_entry(bad, "psi", 6, s, oracle)
    assert not verify_profile_entry({"values": [0], "witnesses": []},
                                    "psi", 6, s, oracle)
    assert not verify_profile_entry(entry, "unknown", 6, s, oracle)


def test_finite_entry_verification_recomputes_boundary():
    s, oracle = load_example("zmod2")
    table = finite_profile(s, oracle, 4)
    entry = {"values": table.values, "witnesses": table.witnesses,
             "budget": table.budget}
    assert verify_profile_entry(entry, "finite", 4, s, oracle)
    moved = copy.deepcopy(entry)
    for wit in moved["witnesses"]:
        for term in (wit["cycle"] + wit["filling"]) if wit else ():
            term["element"] = "e"
    assert not verify_profile_entry(moved, "finite", 4, s, oracle)
    z2, z2_oracle = load_example("z2")
    assert not verify_profile_entry(entry, "finite", 4, z2, z2_oracle)


@pytest.mark.parametrize("change, message", [
    ({"base": "nope"}, "unknown cell id 'nope'"),
    ({"base": "e_a"}, "cell 'e_a' has dimension 1, chain says 2"),
    ({"coeff": 1.5}, "coefficient 1.5 of cell 'f0' is not an integer"),
])
def test_finite_witness_cells_are_checked_as_stored_chains_are(change, message):
    s, oracle = load_example("zmod2")
    term = {"word": "1", "element": "e", "base": "f0", "coeff": 1, **change}
    for read in (lambda: _finite_chain([term], 2, s, oracle),
                 lambda: chain_from_json({"dim": 2, "terms": [term]}, s, oracle)):
        with pytest.raises(InputError) as refused:
            read()
        assert str(refused.value) == message


# Each tampering below keeps the table's shape, so only the witness loop of
# verify_profile_entry can reject it.  The tables are z2 psi(8) =
# [0, 0, 0, 0, 1, 1, 2, 2, 4] and zmod2 finite(8) = [0, 0, 1, 1, 2, 2, 3, 3, 4];
# the witness of size 8 has a cycle of norm 8.

def _drop_top_witness(values, witnesses):
    witnesses[8] = None  # while values[8] > 0


def _raise_top_value(values, witnesses):
    values[8] += 1  # the stored filling's norm no longer matches


def _swap_witnesses(values, witnesses):
    witnesses[4], witnesses[8] = witnesses[8], witnesses[4]


def _copy_top_witness_down(values, witnesses):
    # every filling norm matches its value; only the cycle norm is too big
    for k in range(4, 8):
        values[k], witnesses[k] = values[8], witnesses[8]


def _z2_chain(dim, *terms):
    return {"dim": dim, "terms": [{"word": w, "base": b, "coeff": c} for w, b, c in terms]}


def _square(at):
    return [(at, "e_a", 1), (f"{at} a", "e_b", 1), (f"{at} b", "e_a", -1), (at, "e_b", -1)]


def _zero_chain_witness(values, witnesses):
    # the 8 edges from 1 to a^8 fill the 0-chain (a^8, v) - (1, v)
    values[8] = 8
    witnesses[8] = {"cycle": _z2_chain(0, ("a^8", "v", 1), ("1", "v", -1)),
                    "filling": _z2_chain(1, *[(f"a^{i}", "e_a", 1) for i in range(8)])}


def _disconnected_witness(values, witnesses):
    # two unit squares apart: norm 8, filled by 2 cells, but not connected
    values[8] = 2
    witnesses[8] = {"cycle": _z2_chain(1, *_square("1"), *_square("a^5 b^-2")),
                    "filling": _z2_chain(2, ("1", "f0", 1), ("a^5 b^-2", "f0", 1))}


TAMPERS = ([(name, kind, tamper) for name, kind in (("z2", "psi"), ("zmod2", "finite"))
            for tamper in (_drop_top_witness, _raise_top_value, _swap_witnesses,
                           _copy_top_witness_down)]
           # the psi route writes connected (q-1)-cycles only
           + [("z2", "psi", tamper) for tamper in (_zero_chain_witness, _disconnected_witness)])


@pytest.mark.parametrize("name, kind, tamper", TAMPERS)
def test_profile_entry_rejects_tampered_witnesses(name, kind, tamper):
    s, oracle = load_example(name)
    table = (psi_table if kind == "psi" else finite_profile)(s, oracle, 8)
    entry = {"values": table.values, "witnesses": table.witnesses}
    assert verify_profile_entry(entry, kind, 8, s, oracle)
    bad = copy.deepcopy(entry)
    tamper(bad["values"], bad["witnesses"])
    assert _check_delta(bad["values"]) == bad["values"]
    assert not verify_profile_entry(bad, kind, 8, s, oracle)


def _searched_connectivity(a, s, oracle):
    """`is_connected` by the subchain search alone."""
    return _find_component(*_aligned_units(a, s, oracle)) is None


def test_linear_connectivity_agrees_with_the_component_search(monkeypatch):
    # `is_connected` decides a 1-cycle as one circuit of its aligned unit
    # boundaries; the reference is the subchain search, which every 1-chain
    # that is not a cycle still takes
    from chainprofile import skeleton

    searched = []
    search = skeleton._find_component
    monkeypatch.setattr(skeleton, "_find_component",
                        lambda *args: searched.append(args) or search(*args))
    verdicts = []
    for name, max_norm, shifts in (("z2", 6, ("1", "a", "a b", "a^2", "a^5 b^-2")),
                                   ("surface2", 8, ("1", "a", "a b", "c d^-1"))):
        s, oracle = load_example(name)
        gens = s.presentation.generators
        cycles = [a for reps in connected_cycles_up_to_action(s, oracle, 1, max_norm).values()
                  for a in reps]
        assert len(cycles) == {"z2": 6, "surface2": 2}[name]
        # the cycles, doubled, and their sums with translates: figure-eights
        # where two meet at one vertex
        chains = cycles + [scale_chain(a, 2) for a in cycles]
        chains += [add_chains(a, translate(parse_word(at, gens), b, oracle), oracle)
                   for a in cycles for b in cycles for at in shifts]
        for c in chains:
            if c.terms:
                got = is_connected(c, s, oracle)
                assert not searched
                assert got == _searched_connectivity(c, s, oracle)
                verdicts.append(got)
        first = cycles[0]
        eight = add_chains(first, translate(parse_word("a b", gens), first, oracle), oracle)
        assert eight in chains and norm(eight) == 2 * norm(first)
        assert not is_connected(eight, s, oracle)
        # 1-chains that are not cycles: a path, and a cycle less one edge
        path = parse_chain("(1, e_a) + (a, e_b)", s, oracle)
        for c in (path, Chain(1, first.terms[1:])):
            assert is_connected(c, s, oracle) == _searched_connectivity(c, s, oracle)
            assert searched
            searched.clear()
    assert (verdicts.count(True), verdicts.count(False)) == (38, 174)


def test_fv_entry_verification(tmp_path):
    s, oracle = load_example("z2")
    cyc = parse_chain("(1, e_a) + (a, e_b) - (b, e_a) - (1, e_b)", s, oracle)
    fill = minimal_filling(cyc, s, oracle)
    assert chains_equal(boundary(fill, s, oracle), cyc, oracle)
    entry = {"value": norm(fill), "filling": chain_to_json(fill, s)}
    assert verify_fv_entry(entry, cyc, s, oracle)
    assert not verify_fv_entry({"value": 2, "filling": entry["filling"]},
                               cyc, s, oracle)
    other = parse_chain("2*(1, e_a)", s, oracle)
    assert not verify_fv_entry(entry, other, s, oracle)


def test_verifier_errors_propagate(monkeypatch):
    s, oracle = load_example("z2")
    cyc = parse_chain("(1, e_a) + (a, e_b) - (b, e_a) - (1, e_b)", s, oracle)
    entry = {"value": 1, "filling": chain_to_json(minimal_filling(cyc, s, oracle), s)}

    def broken(*args, **kwargs):
        raise RuntimeError("bug in the verifier")

    monkeypatch.setattr("chainprofile.profiles._canonical_chain", broken)
    with pytest.raises(RuntimeError):
        verify_fv_entry(entry, cyc, s, oracle)
