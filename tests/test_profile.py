"""Filling volumes and profiles against the independent grid model."""

import pickle
import random
import time

import pytest
import window_oracle as win

from chainprofile.cache import verify_profile_entry
from chainprofile.enumeration import connected_cycles_up_to_action
from chainprofile.errors import BudgetExceededError, InputError, WrongAlgorithmError
from chainprofile.inputs import load_example, load_input
from chainprofile.profiles import (
    Budget,
    ProfileTable,
    chain2_bound,
    disk_combination,
    filling_volume,
    finite_profile,
    minimal_filling,
    phi_table,
    psi_table,
)
from chainprofile.skeleton import (
    LiftedCell,
    boundary,
    build_chain,
    chain_from_json,
    chains_equal,
    norm,
    presentation_complex,
    translate,
    validate,
    zero_chain,
)
from chainprofile.words import (
    FiniteTableOracle,
    FreeAbelianOracle,
    FreeOracle,
    exponent_vector,
    parse_presentation,
    parse_word,
)

GENS = ("a", "b")


def z2():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    return presentation_complex(p), FreeAbelianOracle(p)


def two_relator_grid():
    p = parse_presentation("<a, b | a b a^-1 b^-1, b a b^-1 a^-1>")
    return presentation_complex(p), FreeAbelianOracle(p)


def face_chain(s, oracle, terms):
    pairs = [(LiftedCell(2, 0, parse_word(w, GENS)), n) for w, n in terms]
    return build_chain(2, pairs, oracle)


def square_cycle(s, oracle, base_word="1", scale=1):
    f = face_chain(s, oracle, [(base_word, scale)])
    return boundary(f, s, oracle)


def test_square_fills_with_one_face():
    s, oracle = z2()
    cyc = square_cycle(s, oracle)
    t = minimal_filling(cyc, s, oracle)
    assert norm(t) == 1
    assert chains_equal(boundary(t, s, oracle), cyc, oracle)
    assert filling_volume(cyc, s, oracle) == 1


def test_doubled_square_needs_two_faces():
    s, oracle = z2()
    assert filling_volume(square_cycle(s, oracle, scale=2), s, oracle) == 2


def test_domino_needs_two_faces():
    s, oracle = z2()
    f = face_chain(s, oracle, [("1", 1), ("a", 1)])
    cyc = boundary(f, s, oracle)
    assert norm(cyc) == 6
    assert filling_volume(cyc, s, oracle) == 2


def test_filling_volume_is_translation_invariant():
    s, oracle = z2()
    rng = random.Random(5)
    for _ in range(6):
        f = face_chain(s, oracle, [("1", 1), (rng.choice(["a", "b"]), 1)])
        cyc = boundary(f, s, oracle)
        g = parse_word(rng.choice(["a^2", "b^-3 a", "a b^2"]), GENS)
        assert (filling_volume(translate(g, cyc, oracle), s, oracle)
                == filling_volume(cyc, s, oracle))


def test_zero_cycle_fills_with_nothing():
    s, oracle = z2()
    assert filling_volume(zero_chain(1), s, oracle) == 0


def test_non_cycle_is_rejected():
    s, oracle = z2()
    idx = {s.cell_id(1, i): i for i in range(s.n_cells(1))}
    a = build_chain(1, [(LiftedCell(1, idx["e_a"], parse_word("1", GENS)), 1)], oracle)
    with pytest.raises(InputError):
        minimal_filling(a, s, oracle)


def test_tiny_cap_is_reported():
    s, oracle = z2()
    cyc = square_cycle(s, oracle, scale=3)
    with pytest.raises(BudgetExceededError):
        minimal_filling(cyc, s, oracle, budget=Budget(fill_volume_cap=2))


@pytest.mark.parametrize("name, cap", [
    ("fill_volume_cap", "3"), ("fill_volume_cap", -1), ("fill_volume_cap", True),
    ("node_cap", 2.5), ("node_cap", -5), ("node_cap", 0), ("node_cap", None)])
def test_budget_refuses_caps_the_cli_refuses(name, cap):
    with pytest.raises(InputError, match=f"^{name} must be an integer >= "):
        Budget(**{name: cap})


def test_budget_and_table_values():
    assert Budget() == Budget(24, 1_000_000) != Budget(fill_volume_cap=0)
    assert Budget(fill_volume_cap=0, node_cap=1).to_json_dict() == \
        {"fill_volume_cap": 0, "node_cap": 1}
    assert repr(Budget()) == "Budget(fill_volume_cap=24, node_cap=1000000)"
    assert Budget() != (24, 1_000_000)
    t1, t2 = (ProfileTable("psi", "f", Budget().to_json_dict(), [0]) for _ in range(2))
    assert t1 == t2 and t1.witnesses == [] and t1.witnesses is not t2.witnesses
    t1.witnesses.append(None)
    assert t2.witnesses == [] and t1 != t2
    assert repr(t2) == ("ProfileTable(kind='psi', fingerprint='f', budget="
                        "{'fill_volume_cap': 24, 'node_cap': 1000000}, values=[0], witnesses=[])")
    # a table is a value like Budget (`_value_objects` in test_skeleton), but
    # unhashable: its values and witnesses are lists
    with pytest.raises(AttributeError, match="^cannot assign to field 'values'$"):
        t1.values = [1]
    assert pickle.loads(pickle.dumps(t1)) == t1 != t2
    with pytest.raises(TypeError):
        hash(t1)


@pytest.mark.parametrize("size", [2.0, "3", True, None, -1])
def test_sizes_must_be_integers(size):
    s, oracle = z2()
    p = parse_presentation("<a | a^2>")
    finite = presentation_complex(p), FiniteTableOracle(p, ["e", "a"], [[0, 1], [1, 0]], {"a": 1})
    psi = psi_table(s, oracle, 1)
    for call in (lambda: psi_table(s, oracle, size), lambda: phi_table(s, oracle, size),
                 lambda: phi_table(s, oracle, size, psi=psi), lambda: finite_profile(*finite, size)):
        with pytest.raises(InputError, match=f"^profile length must be an integer >= 0, got "
                                             f"{size!r}$"):
            call()
    with pytest.raises(InputError, match=f"^number of parts must be an integer >= 1, got {size!r}$"):
        disk_combination([0, 1], size)


@pytest.mark.parametrize("cap", [1, 2])
def test_search_budget_names_the_fill_cap(cap):
    # Z^3 is outside the rewriting gate; the 1 x 3 rectangle needs 3 faces,
    # and deepening starts at ceil(8 / 4) = 2: past the cap at 1, exhausted
    # at 2
    p = parse_presentation("<a, b, c | a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1>")
    s, oracle = presentation_complex(p), FreeAbelianOracle(p)
    faces = build_chain(2, [(LiftedCell(2, 0, parse_word(f"a^{x}", p.generators)), 1)
                            for x in range(3)], oracle)
    cyc = boundary(faces, s, oracle)
    with pytest.raises(BudgetExceededError, match=f"^no filling of norm at most {cap} found$"):
        minimal_filling(cyc, s, oracle, budget=Budget(fill_volume_cap=cap))
    assert filling_volume(cyc, s, oracle) == 3


def test_search_budget_names_the_filling_norm_reached():
    # two relators put the grid outside the rewriting gate; the 3 x 3 block
    # needs 9 faces, deepening starts at ceil(12 / 4) = 3, and level 3 is
    # exhausted within the cap
    s, oracle = two_relator_grid()
    block = face_chain(s, oracle, [(f"a^{x} b^{y}", 1) for x in range(3) for y in range(3)])
    cyc = boundary(block, s, oracle)
    with pytest.raises(BudgetExceededError,
                       match="filling search expanded more than 5 nodes, "
                             "reaching filling norm 4"):
        minimal_filling(cyc, s, oracle, budget=Budget(node_cap=5))


def test_psi_values_on_the_grid():
    s, oracle = z2()
    table = psi_table(s, oracle, 8)
    assert table.values == [0, 0, 0, 0, 1, 1, 2, 2, 4]
    assert table.kind == "psi"
    for n in (4, 6, 8):
        wit = table.witnesses[n]
        cyc = chain_from_json(wit["cycle"], s, oracle)
        fill = chain_from_json(wit["filling"], s, oracle)
        assert norm(cyc) <= n
        assert norm(fill) == table.values[n]
        assert chains_equal(boundary(fill, s, oracle), cyc, oracle)


def test_psi_matches_grid_model_small():
    # every witness cycle is filled again by the model's winding numbers
    s, oracle = z2()
    table = psi_table(s, oracle, 10)
    assert table.values == win.z2_psi_table(10) == [0, 0, 0, 0, 1, 1, 2, 2, 4, 4, 6]
    kind = {base: "h" if s.cell_id(1, base) == "e_a" else "v" for base in range(2)}
    for n, wit in enumerate(table.witnesses):
        if wit is None:
            assert table.values[n] == 0
            continue
        cycle = chain_from_json(wit["cycle"], s, oracle)
        grid = {(kind[c.base], *exponent_vector(c.word)): k for c, k in cycle.terms}
        assert norm(cycle) <= n
        assert win.filling_volume(grid) == table.values[n]
        assert norm(chain_from_json(wit["filling"], s, oracle)) == table.values[n]


def test_worker_count_does_not_change_results():
    s, oracle = z2()
    one = psi_table(s, oracle, 10, workers=1)
    two = psi_table(s, oracle, 10, workers=2)
    assert one.values == two.values
    assert one.witnesses == two.witnesses


def test_worker_count_does_not_change_searched_results():
    # two relators put the grid outside the rewriting gate, so the forked
    # workers run the filling search
    s, oracle = two_relator_grid()
    one = psi_table(s, oracle, 6, workers=1)
    two = psi_table(s, oracle, 6, workers=2)
    assert one.values == [0, 0, 0, 0, 1, 1, 2]
    assert one.values == two.values
    assert one.witnesses == two.witnesses


def test_phi_recurrence_on_the_grid():
    s, oracle = z2()
    table = phi_table(s, oracle, 8)
    assert table.values == [0, 0, 0, 0, 1, 1, 2, 2, 4]
    assert table.witnesses[8]["partition"] == [8]
    assert sum(table.witnesses[5]["partition"]) == 5


def test_phi_agrees_with_exhaustive_partitions():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 10)
        delta = [0]
        for _ in range(n):
            delta.append(delta[-1] + rng.randint(0, 3))
        ours = chain2_bound(delta)
        for j in range(n + 1):
            assert ours[j] == win.partition_max(delta, j)


def test_free_group_profiles_vanish():
    p = parse_presentation("<a, b |>")
    s, oracle = presentation_complex(p), FreeOracle(p)
    assert psi_table(s, oracle, 8).values == [0] * 9
    assert phi_table(s, oracle, 8).values == [0] * 9


def test_phi_rejects_a_psi_table_of_another_complex():
    s, oracle = z2()
    psi = psi_table(s, oracle, 8)
    f2 = parse_presentation("<a, b |>")
    with pytest.raises(InputError, match="same complex and oracle"):
        phi_table(presentation_complex(f2), FreeOracle(f2), 8, psi=psi)
    with pytest.raises(InputError, match="matching length"):
        phi_table(s, oracle, 7, psi=psi)
    assert phi_table(s, oracle, 8, psi=psi).fingerprint == psi.fingerprint


def three_torus():
    return load_input(three_torus_input())


def three_torus_input():
    """Cube complex of Z^3: one vertex, three edges, three squares, one cube,
    with the abelian oracle."""
    def cell(dim, cid, *terms):
        return {"dim": dim, "id": cid,
                "boundary": [{"word": w, "base": b, "coeff": c} for w, b, c in terms]}

    def square(cid, x, y):
        return cell(2, cid, ("1", f"e_{x}", 1), (x, f"e_{y}", 1),
                    (y, f"e_{x}", -1), ("1", f"e_{y}", -1))

    cells = [cell(0, "v")]
    cells += [cell(1, f"e_{x}", ("1", "v", -1), (x, "v", 1)) for x in "abc"]
    cells += [square("f_ab", "a", "b"), square("f_ac", "a", "c"), square("f_bc", "b", "c")]
    cells.append(cell(3, "cube", ("a", "f_bc", 1), ("1", "f_bc", -1), ("b", "f_ac", -1),
                      ("1", "f_ac", 1), ("c", "f_ab", 1), ("1", "f_ab", -1)))
    return {"dim": 3, "oracle": {"kind": "abelian"}, "cells": cells,
            "presentation": "<a, b, c | a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1>"}


def test_three_torus_two_cycles_and_psi():
    # the only connected 2-cycles of norm at most 7 are the two orientations
    # of the boundary of one cube, which the cube fills
    s, oracle = three_torus()
    assert validate(s, oracle)
    got = connected_cycles_up_to_action(s, oracle, 2, 7)
    assert {n: len(v) for n, v in got.items() if v} == {6: 2}
    for workers, n in ((1, 7), (2, 6)):
        table = psi_table(s, oracle, n, workers=workers)
        assert table.values == [0, 0, 0, 0, 0, 0, 1, 1][:n + 1]
        cycle = chain_from_json(table.witnesses[6]["cycle"], s, oracle)
        filling = chain_from_json(table.witnesses[6]["filling"], s, oracle)
        assert norm(cycle) == 6
        assert chains_equal(boundary(filling, s, oracle), cycle, oracle)
        entry = {"values": table.values, "witnesses": table.witnesses}
        assert verify_profile_entry(entry, "psi", n, s, oracle)


@pytest.mark.slow
def test_three_torus_two_cycles_and_psi_to_eight():
    # the 1 x 1 x 2 box has area 10, so norm 8 adds no cycle
    s, oracle = three_torus()
    got = connected_cycles_up_to_action(s, oracle, 2, 8)
    assert {n: len(v) for n, v in got.items() if v} == {6: 2}
    assert psi_table(s, oracle, 8).values == [0, 0, 0, 0, 0, 0, 1, 1, 1]


def test_three_torus_boxes_fill_with_their_cubes():
    t0 = time.time()
    s, oracle = three_torus()
    gens = s.presentation.generators
    # the 1 x 1 x 2 and 2 x 2 x 1 boxes: (cubes, surface area, filling volume)
    for words, area, fv in ((["1", "c"], 10, 2), (["1", "a", "b", "a b"], 16, 4)):
        box = build_chain(3, [(LiftedCell(3, 0, parse_word(w, gens)), 1) for w in words],
                          oracle)
        cyc = boundary(box, s, oracle)
        assert norm(cyc) == area
        assert filling_volume(cyc, s, oracle) == fv
    elapsed = time.time() - t0
    assert elapsed < 10.0


def test_three_dimensional_grid_psi_to_eight():
    # three commutators: outside the rewriting gate, every value is searched
    t0 = time.time()
    p = parse_presentation("<a, b, c | a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1>")
    s, oracle = presentation_complex(p), FreeAbelianOracle(p)
    assert psi_table(s, oracle, 8).values == [0, 0, 0, 0, 1, 1, 3, 3, 5]
    elapsed = time.time() - t0
    assert elapsed < 60.0


def test_two_relator_grid_psi_matches_grid_model_to_ten():
    want = win.z2_psi_table(10)
    assert want == [0, 0, 0, 0, 1, 1, 2, 2, 4, 4, 6]
    t0 = time.time()
    s, oracle = two_relator_grid()
    assert psi_table(s, oracle, 10).values == want
    elapsed = time.time() - t0
    assert elapsed < 30.0


def test_surface_psi_to_eight():
    # the shortest connected cycles of the genus-two surface are the two
    # orientations of the relator octagon, each filled by one face
    s, oracle = load_example("surface2")
    table = psi_table(s, oracle, 8)
    assert table.values == [0, 0, 0, 0, 0, 0, 0, 0, 1]
    wit = table.witnesses[8]
    cycle = chain_from_json(wit["cycle"], s, oracle)
    filling = chain_from_json(wit["filling"], s, oracle)
    assert norm(cycle) == 8 and norm(filling) == 1
    assert chains_equal(boundary(filling, s, oracle), cycle, oracle)


def test_finite_profile_of_order_two():
    p = parse_presentation("<a | a^2>")
    oracle = FiniteTableOracle(p, ["e", "a"], [[0, 1], [1, 0]], {"a": 1})
    s = presentation_complex(p)
    table = finite_profile(s, oracle, 6)
    assert table.values == [0, 0, 1, 1, 2, 2, 3]
    assert table.values == [win.zmod2_profile(n) for n in range(7)]
    wit = table.witnesses[6]
    assert sum(abs(t["coeff"]) for t in wit["filling"]) == 3


def test_algorithm_routing_is_strict():
    p = parse_presentation("<a | a^2>")
    oracle = FiniteTableOracle(p, ["e", "a"], [[0, 1], [1, 0]], {"a": 1})
    s = presentation_complex(p)
    with pytest.raises(WrongAlgorithmError):
        psi_table(s, oracle, 4)
    with pytest.raises(WrongAlgorithmError):
        phi_table(s, oracle, 4)
    sz, oz = z2()
    with pytest.raises(WrongAlgorithmError):
        finite_profile(sz, oz, 4)


def test_combination_table_validation():
    with pytest.raises(InputError):
        chain2_bound([1, 2, 3])
    with pytest.raises(InputError):
        chain2_bound([0, 2, 1])
    with pytest.raises(InputError):
        chain2_bound([0, 1, -1])
    with pytest.raises(InputError):
        chain2_bound([0, 1, 1.5])


def test_disk_combination_parts():
    assert disk_combination([0, 1, 1, 2, 3], 1) == [0, 1, 1, 2, 3]
    assert disk_combination([0, 1, 1, 2, 3], 2) == [0, 1, 2, 2, 3]
    assert disk_combination([0, 0, 1, 1, 2], 2)[4] == 2
    with pytest.raises(InputError):
        disk_combination([0, 1], 0)
