"""The exact finite sweep against the exhaustive model and frozen values."""

import hashlib
import itertools
import json
import logging
import random
import time

import finite_model
import pytest

from chainprofile.cache import verify_profile_entry
from chainprofile.cli import main
from chainprofile.errors import BudgetExceededError
from chainprofile.inputs import load_example, load_input
from chainprofile.profiles import (
    Budget,
    _finite_cycles,
    _finite_fillings,
    _finite_unit_boundary,
    finite_profile,
)

# <a | a^4> over Z/2: every 2-cell has boundary 2 (e, e_a) + 2 (a, e_a), so
# the cycle (e, e_a) + (a, e_a) has no filling at all
UNFILLABLE = {"dim": 2, "presentation": "<a | a^4>",
              "oracle": {"kind": "finite-table", "elements": ["e", "a"],
                         "table": [[0, 1], [1, 0]], "generator_map": {"a": 1}}}


def _group_input(elements, mul, gens, presentation, labels=None):
    idx = {g: k for k, g in enumerate(elements)}
    return {"dim": 2, "presentation": presentation,
            "oracle": {"kind": "finite-table",
                       "elements": labels or [f"x{k}" for k in range(len(elements))],
                       "table": [[idx[mul(p, q)] for q in elements] for p in elements],
                       "generator_map": {g: idx[e] for g, e in gens.items()}}}


TABLES = {
    "klein": ([(i, j) for i in (0, 1) for j in (0, 1)],
              lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2),
              {"a": (1, 0), "b": (0, 1)}, "<a, b | a^2, b^2, a b a^-1 b^-1>"),
    "s3": (list(itertools.permutations(range(3))),
           lambda p, q: tuple(p[q[i]] for i in range(3)),
           {"a": (1, 0, 2), "b": (0, 2, 1)}, "<a, b | a^2, b^2, a b a b a b>"),
    "z4": (list(range(4)), lambda p, q: (p + q) % 4, {"a": 1}, "<a | a^4>"),
    "z6": (list(range(6)), lambda p, q: (p + q) % 6, {"a": 1}, "<a | a^6>"),
    # (rotation, flip): a flip reverses the rotation that follows it
    "d4": ([(r, f) for f in (0, 1) for r in range(4)],
           lambda p, q: ((p[0] + (-1) ** p[1] * q[0]) % 4, (p[1] + q[1]) % 2),
           {"a": (1, 0), "b": (0, 1)}, "<a, b | a^4, b^2, a b a b>"),
}


def klein():
    return load_input(_group_input(*TABLES["klein"]))


def s3():
    return load_input(_group_input(*TABLES["s3"]))


def cancelling():
    """Z/2 presented as <a, b | a^2, b, a b a^-1 b^-1>, b the identity: the
    two lifts of e_a in the commutator's boundary cancel."""
    return load_input(_group_input([0, 1], lambda p, q: (p + q) % 2, {"a": 1, "b": 0},
                                   "<a, b | a^2, b, a b a^-1 b^-1>"))


GROUPS = {"zmod2": lambda: load_example("zmod2"), "klein": klein, "s3": s3,
          "cancelling": cancelling}


def _witness_cycle(cycles, fv, k):
    """The least (norm, sorted cells) cycle of norm <= k with the largest FV."""
    best = max((fv[c] for c, m in cycles.items() if m <= k), default=0)
    if best == 0:
        return None
    return min((m, c) for c, m in cycles.items() if m <= k and fv[c] == best)[1]


def _verified(table, n, s, oracle):
    entry = {"values": table.values, "witnesses": table.witnesses,
             "budget": table.budget}
    return verify_profile_entry(entry, "finite", n, s, oracle)


def _orbit(key, table):
    """The images of a cycle under left translation by the table and under
    negation."""
    return {tuple(sorted(((row[e], base), sign * c) for (e, base), c in key))
            for row in table for sign in (1, -1)}


def _model_orbits(model_cycles, table):
    """One cycle per orbit, the least of its images, with (norm, orbit size)."""
    orbits = {}
    for key, m in model_cycles.items():
        images = _orbit(key, table)
        orbits[min(images)] = (m, len(images))
    return orbits


@pytest.mark.parametrize("group, n", [("zmod2", 6), ("klein", 6), ("s3", 5), ("cancelling", 4)])
def test_sweep_matches_exhaustive_model(group, n):
    s, oracle = GROUPS[group]()
    cycles, nodes = _finite_cycles(s, oracle, n, Budget().node_cap)
    fv, _ = _finite_fillings(s, oracle, cycles, n, Budget(), nodes)
    model_cycles, model_fv = finite_model.sweep(s, oracle, n)
    assert cycles == _model_orbits(model_cycles, oracle.table)
    for k in range(n + 1):
        assert (sum(size for m, size in cycles.values() if m == k)
                == sum(m == k for m in model_cycles.values()))
    assert fv == {key: model_fv[key] for key in cycles}
    table = finite_profile(s, oracle, n)
    for k, wit in enumerate(table.witnesses):
        key = _witness_cycle(model_cycles, model_fv, k)
        if key is None:
            assert wit is None and table.values[k] == 0
            continue
        assert table.values[k] == model_fv[key]
        assert wit["cycle"] == [{"element": oracle.elements[e],
                                 "base": s.cell_id(1, base), "coeff": c}
                                for (e, base), c in key]


def test_cancelling_lifts_leave_a_cell_boundary():
    s, oracle = cancelling()
    bnds = [_finite_unit_boundary(s, oracle, 2, 0, base) for base in range(s.n_cells(2))]
    # a^2, b, and the commutator with its two lifts of e_a gone
    assert [sorted(b.values()) for b in bnds] == [[1, 1], [1], [-1, 1]]
    assert finite_profile(s, oracle, 4).values == [0, 1, 2, 3, 4]


def _relabelled(group, seed):
    """The group's table reordered so that the identity leaves index 0, with
    shuffled labels."""
    elements, mul, gens, presentation = TABLES[group]
    rng = random.Random(seed)
    order = list(elements)
    while order[0] == elements[0]:
        rng.shuffle(order)
    labels = rng.sample([f"x{k}" for k in range(len(elements))], len(elements))
    return load_input(_group_input(order, mul, gens, presentation, labels))


@pytest.mark.parametrize("group, n, seed, sizes", [
    ("klein", 6, 1, {1, 2, 4, 8}),
    ("klein", 6, 2, {1, 2, 4, 8}),
    ("s3", 5, 1, {1, 6, 12}),
    ("s3", 5, 2, {1, 6, 12}),
    ("z4", 8, None, {1, 2}),
    ("z6", 6, None, {1, 2}),
    ("d4", 4, None, {1, 4, 8, 16}),
])
def test_orbit_sizes_match_the_model(group, n, seed, sizes):
    # a cycle is tested only against the translations moving one of its
    # elements to element 0, and its orbit size is 2|G| over the images among
    # them equal to it, with either sign.  Off index 0 the identity is not
    # element 0; on the cyclic tables the loop around G is fixed by all of G
    s, oracle = (_relabelled(group, seed) if seed
                 else load_input(_group_input(*TABLES[group])))
    cycles, _ = _finite_cycles(s, oracle, n, Budget().node_cap)
    assert cycles == _model_orbits(finite_model.cycles_of(s, oracle, n), oracle.table)
    assert {size for _, size in cycles.values()} == sizes


@pytest.mark.parametrize("group, n, values", [
    ("klein", 8, [0, 0, 1, 1, 3, 3, 4, 4, 6]),
    ("s3", 6, [0, 0, 1, 1, 2, 2, 4]),
])
def test_frozen_profiles_with_verified_witnesses(group, n, values):
    s, oracle = GROUPS[group]()
    table = finite_profile(s, oracle, n)
    assert table.values == values
    assert _verified(table, n, s, oracle)


@pytest.mark.parametrize("group, n, digest", [
    ("klein", 8, "81537a9c2403315e8df13eff6384ee7622d120ed2bf1ff9628e1f4e5d9e12153"),
    ("s3", 6, "44ffa5604deced0ebb63f8a87c5cf27fd83b0ec1596b36bb69d44e66b01c4a78"),
])
def test_frozen_values_and_witnesses_digest(group, n, digest):
    # sha256 of [values, witnesses] as the full cycle sweep wrote them
    table = finite_profile(*GROUPS[group](), n)
    text = json.dumps([table.values, table.witnesses], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("group, n", [("klein", 8), ("s3", 6)])
def test_values_do_not_depend_on_the_labeling(group, n):
    elements, mul, gens, presentation = TABLES[group]
    values = finite_profile(*GROUPS[group](), n).values
    rng = random.Random(n)
    for _ in range(6):
        # reorder the table and shuffle the element labels; 4 of the 6
        # orders move the identity off index 0
        order = rng.sample(elements, len(elements))
        labels = rng.sample([f"x{k}" for k in range(len(elements))], len(elements))
        s, oracle = load_input(_group_input(order, mul, gens, presentation, labels))
        table = finite_profile(s, oracle, n)
        assert table.values == values
        assert _verified(table, n, s, oracle)


@pytest.mark.parametrize("group, n, orbits, nodes", [
    ("klein", 8, 149, 484),
    ("s3", 6, 57, 248),
])
def test_cycle_search_nodes(group, n, orbits, nodes):
    # a search of every cycle visits 2,753 (klein) and 1,547 (s3) nodes, so a
    # lost orbit cut shows here; the forced and interval cuts skip only
    # coefficients that fail the norm cut and leave the count alone
    cycles, got = _finite_cycles(*GROUPS[group](), n, Budget().node_cap)
    assert (len(cycles), got) == (orbits, nodes)


@pytest.mark.parametrize("group, n", [("klein", 8), ("klein", 10), ("s3", 7)])
def test_both_ends_match_a_forward_only_sweep(group, n):
    # the sweep finishes by searching back from the pending cycles; a plain
    # breadth-first search that builds every level gives the same FV, and
    # every rebuilt filling has that norm
    s, oracle = GROUPS[group]()
    cycles, nodes = _finite_cycles(s, oracle, n, Budget().node_cap)
    fv, filling = _finite_fillings(s, oracle, cycles, n, Budget(), nodes)
    assert fv == finite_model.forward_fv(s, oracle, cycles)
    for key in cycles:
        assert sum(map(abs, filling(key).values())) == fv[key]


@pytest.mark.parametrize("group, n, total, depth, norm, unfilled", [
    ("klein", 8, 1486, 2, 5, 120),
    ("s3", 6, 456, 1, 3, 392),
])
def test_sweep_node_count(group, n, total, depth, norm, unfilled):
    # cycle search nodes plus the states of both filling searches: klein
    # 484 + 16 + 102 + 392 forward + 288 + 204 backward, s3 248 + 16 + 128
    # forward + 64 backward.  Building the widest level instead (klein level
    # 5 alone has 2,552 states) passes the cap.  One node fewer runs out in
    # the last backward layer
    s, oracle = GROUPS[group]()
    assert finite_profile(s, oracle, n, Budget(node_cap=total)).values
    with pytest.raises(BudgetExceededError,
                       match=rf"finite filling sweep passed {total - 1} nodes "
                             rf"in the backward search at depth {depth} from "
                             rf"the pending cycles \(filling norm {norm}\), "
                             rf"with {unfilled} cycles unfilled"):
        finite_profile(s, oracle, n, Budget(node_cap=total - 1))


def test_node_cap_in_cycle_enumeration():
    s, oracle = klein()
    with pytest.raises(BudgetExceededError,
                       match=r"finite cycle enumeration passed 100 nodes, "
                             r"with partial chains reaching norm \d+ of 8"):
        finite_profile(s, oracle, 8, Budget(node_cap=100))


@pytest.mark.parametrize("group, n, cap, orbits", [
    ("klein", 8, 100, 30), ("klein", 8, 300, 89),
    ("s3", 6, 100, 28), ("s3", 6, 200, 44),
])
def test_node_cap_pins_the_search_order(group, n, cap, orbits):
    # the orbits found before the cap fix the order the search visits nodes in
    with pytest.raises(BudgetExceededError,
                       match=rf"^finite cycle enumeration passed {cap} nodes, "
                             rf"with partial chains reaching norm {n} of {n} "
                             rf"and {orbits} cycle orbits found$"):
        finite_profile(*GROUPS[group](), n, Budget(node_cap=cap))


def test_node_cap_in_filling_sweep():
    s, oracle = klein()
    _, nodes = _finite_cycles(s, oracle, 8, Budget().node_cap)
    with pytest.raises(BudgetExceededError,
                       match=r"finite filling sweep passed \d+ nodes at level "
                             r"\d+, with \d+ cycles unfilled"):
        finite_profile(s, oracle, 8, Budget(node_cap=nodes + 50))


def test_unfillable_cycle_exits_4_quickly(tmp_path, capsys):
    path = tmp_path / "a4.json"
    path.write_text(json.dumps(UNFILLABLE))
    t0 = time.perf_counter()
    code = main(["finite-profile", "--input", str(path), "-n", "2", "--no-cache"])
    elapsed = time.perf_counter() - t0
    assert code == 4
    assert "some cycles admit no filling of norm at most 24" in capsys.readouterr().err
    assert elapsed < 1.0


def test_debug_progress_one_record_per_level(caplog):
    s, oracle = load_example("zmod2")
    with caplog.at_level(logging.DEBUG, logger="chainprofile.profiles"):
        table = finite_profile(s, oracle, 6)
    messages = [r.getMessage() for r in caplog.records]
    assert sum(m.startswith("finite cycle enumeration: 7 cycles") for m in messages) == 1
    levels = [m for m in messages if m.startswith("finite filling sweep level")]
    assert len(levels) == table.values[-1] == 3
    assert levels[-1].endswith(" 0 cycles pending")


def test_debug_progress_counts_backward_levels(caplog):
    with caplog.at_level(logging.DEBUG, logger="chainprofile.profiles"):
        table = finite_profile(*klein(), 8)
    levels = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("finite filling sweep level")]
    assert len(levels) == table.values[-1] == 6
    assert [" back from " in m for m in levels] == [False] * 3 + [True] * 3
    assert levels[-1].endswith(" 0 cycles pending")
