"""Connected-chain enumeration checked against the independent grid model."""

import itertools
import random

import pytest
import window_oracle as win
from orbit_reference import equal_up_to_translation
from test_profile import three_torus

from chainprofile.enumeration import (
    _closed_walks,
    _symmetries,
    connected_chains_up_to_action,
    connected_cycles_up_to_action,
    reachable_chains,
)
from chainprofile.errors import BudgetExceededError, InputError, OracleUndecidedError
from chainprofile.inputs import load_example
from chainprofile.skeleton import (
    LiftedCell,
    SkeletonSpec,
    build_chain,
    identity_word,
    is_connected,
    is_cycle,
    norm,
    presentation_complex,
    translate,
    validate,
)
from chainprofile.words import (
    BoundedBFSOracle,
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


def f2():
    p = parse_presentation("<a, b |>")
    return presentation_complex(p), FreeOracle(p)


def zmod2():
    p = parse_presentation("<a | a^2>")
    oracle = FiniteTableOracle(p, ["e", "a"], [[0, 1], [1, 0]], {"a": 1})
    return presentation_complex(p), oracle


def to_window(a, s):
    """Map a 1-chain on the rank-2 abelian complex to the grid model."""
    kind = {}
    for base in range(s.n_cells(1)):
        kind[base] = "h" if s.cell_id(1, base) == "e_a" else "v"
    out = {}
    for c, n in a.terms:
        p, q = exponent_vector(c.word)
        out[(kind[c.base], p, q)] = n
    return out


def edge_chain(s, oracle, terms):
    idx = {s.cell_id(1, i): i for i in range(s.n_cells(1))}
    pairs = [(LiftedCell(1, idx[cid], parse_word(w, GENS)), n)
             for w, cid, n in terms]
    return build_chain(1, pairs, oracle)


def test_chain_orbits_match_grid_model():
    s, oracle = z2()
    got = connected_chains_up_to_action(s, oracle, 1, 5)
    want = win.connected_chain_orbits(5)
    for n in range(1, 6):
        ours = {win.canonical(to_window(a, s)) for a in got.get(n, [])}
        assert ours == want[n], f"norm {n}"
    assert {n: len(v) for n, v in got.items()} == {1: 4, 2: 12, 3: 36, 4: 102, 5: 284}


def test_cycle_orbits_match_grid_model():
    s, oracle = z2()
    got = connected_cycles_up_to_action(s, oracle, 1, 8)
    want = win.connected_cycle_orbits(8)
    for n in range(1, 9):
        ours = {win.canonical(to_window(a, s)) for a in got.get(n, [])}
        assert ours == want.get(n, set()), f"norm {n}"
    assert {n: len(v) for n, v in got.items() if v} == {4: 2, 6: 4, 8: 14}


def test_free_group_has_no_cycles():
    s, oracle = f2()
    got = connected_cycles_up_to_action(s, oracle, 1, 10)
    assert all(not v for v in got.values())
    # the reduced vertex word is the distance home: walks past half the norm
    # are cut, and the symmetries leave one first label
    got = connected_cycles_up_to_action(s, oracle, 1, 10, node_cap=200)
    assert all(not v for v in got.values())


def test_finite_cover_cycles():
    s, oracle = zmod2()
    got = connected_cycles_up_to_action(s, oracle, 1, 6)
    counts = {n: len(v) for n, v in got.items() if v}
    assert counts == {2: 2}
    for a in got[2]:
        assert is_cycle(a, s, oracle)
        assert is_connected(a, s, oracle)


def test_reachable_chains_are_connected_when_filtered():
    s, oracle = z2()
    reached = reachable_chains(s, oracle, 1, 4)
    assert list(reached) == [1, 2, 3, 4]
    for n, chains in reached.items():
        assert chains
        for a in chains:
            assert norm(a) == n


def test_signature_is_translation_invariant():
    s, oracle = z2()
    rng = random.Random(11)
    words = ["1", "a", "b^-1", "a b", "a^-2 b", "b^3 a^-1"]
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 4)):
            terms.append((rng.choice(words), rng.choice(("e_a", "e_b")),
                          rng.choice((-2, -1, 1, 2))))
        a = edge_chain(s, oracle, terms)
        if not a.terms:
            continue
        g = parse_word(rng.choice(["a^3", "b^-2 a", "a b a"]), GENS)
        moved = translate(g, a, oracle)
        assert equal_up_to_translation(a, moved, oracle)


def test_distinct_orbits_are_not_identified():
    s, oracle = z2()
    a = edge_chain(s, oracle, [("1", "e_a", 1)])
    b = edge_chain(s, oracle, [("1", "e_b", 1)])
    c = edge_chain(s, oracle, [("1", "e_a", -1)])
    assert not equal_up_to_translation(a, b, oracle)
    assert not equal_up_to_translation(a, c, oracle)
    shifted = edge_chain(s, oracle, [("a^4 b^-1", "e_a", 1)])
    assert equal_up_to_translation(a, shifted, oracle)


def counts(got):
    return {n: len(v) for n, v in got.items() if v}


def grown_cycles(s, oracle, max_norm):
    """Connected cycles by the generic grower, the reference for the walks."""
    reached = reachable_chains(s, oracle, 1, max_norm, cycle_target=True)
    return {n: [a for a in chains if is_connected(a, s, oracle)]
            for n, chains in reached.items()}


def assert_same_orbits(got, want, oracle):
    assert counts(got) == counts(want)
    for n, reps in want.items():
        for b in reps:
            assert sum(equal_up_to_translation(a, b, oracle) for a in got[n]) == 1


@pytest.mark.parametrize("dim,max_norm", [(2, 3), (1, 4)])
def test_oracles_agree_on_the_grid(dim, max_norm):
    # normal forms name each element by a dict lookup; the search oracle has
    # none, so equal invariant keys are settled by is_trivial
    s, search = grid_search()
    exact = FreeAbelianOracle(s.presentation)
    assert exact.has_normal_forms and not search.has_normal_forms and not search._dehn
    want = reachable_chains(s, exact, dim, max_norm)
    got = reachable_chains(s, search, dim, max_norm)
    assert {n: len(v) for n, v in got.items()} == {n: len(v) for n, v in want.items()}
    for n, reps in want.items():
        for a in reps:
            assert sum(equal_up_to_translation(a, b, exact) for b in got[n]) == 1


def test_surface_chains_in_dimension_two():
    s, oracle = load_example("surface2")
    got = reachable_chains(s, oracle, 2, 4)
    assert counts(got) == {1: 2, 2: 10, 3: 74, 4: 698}
    reps = got[3]
    for i, a in enumerate(reps):
        assert not any(equal_up_to_translation(a, b, oracle) for b in reps[i + 1:])


@pytest.mark.parametrize("option", ["radius", "node_cap"])
def test_undecided_cell_match_is_reported(option):
    # one id per element across all chains and bases: a cell word is told
    # apart from every earlier word of its invariant key by the oracle
    s, _ = grid_search()
    with pytest.raises(OracleUndecidedError):
        reachable_chains(s, BoundedBFSOracle(s.presentation, **{option: 1}), 2, 3)


@pytest.mark.parametrize("name,dim,max_norm", [
    ("z2", 1, 6), ("grid-search", 1, 4), ("grid-search", 1, 6), ("doubled", 2, 4),
    pytest.param("z2", 1, 8, marks=pytest.mark.slow),
    pytest.param("torus3", 2, 6, marks=pytest.mark.slow),
])
def test_cycle_target_loses_no_cycle(name, dim, max_norm):
    # the cut drops only chains that cannot close by max_norm, so each level
    # holds exactly the cycles of the uncut growth, the same representatives
    # in the same order
    s, oracle = INPUTS[name]()
    everything = reachable_chains(s, oracle, dim, max_norm)
    cycles = reachable_chains(s, oracle, dim, max_norm, cycle_target=True)
    assert list(cycles) == list(everything) == list(range(1, max_norm + 1))
    for n, chains in everything.items():
        want = [a.terms for a in chains if is_cycle(a, s, oracle)]
        assert [a.terms for a in cycles[n]] == want, f"norm {n}"
    assert any(cycles.values())


def test_grid_cycle_counts_are_twice_the_polygon_counts():
    # self-avoiding polygons on the square lattice by perimeter (OEIS A002931)
    # are 1, 2, 7, 28, 124 for 4..12; each appears once per orientation
    s, oracle = z2()
    got = connected_cycles_up_to_action(s, oracle, 1, 12)
    assert counts(got) == {4: 2, 6: 4, 8: 14, 10: 56, 12: 248}


@pytest.mark.parametrize("name,max_norm", [
    ("z2", 8), ("zmod2", 6), ("surface2", 4),
    ("subdivided", 10),   # several base vertices
    ("loop", 4),          # closed walks of one step
    ("grid-search", 6),   # equal keys go to the oracle
])
def test_walks_agree_with_growth(name, max_norm):
    # the generic grower is the reference for the walk search and its cuts
    s, oracle = INPUTS[name]()
    got = connected_cycles_up_to_action(s, oracle, 1, max_norm)
    assert_same_orbits(got, grown_cycles(s, oracle, max_norm), oracle)


def subdivided_z2():
    """The grid with every horizontal edge split at a midpoint vertex m."""
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    w = lambda text: parse_word(text, p.generators)
    s = SkeletonSpec(2, p, [
        (0, "v", []),
        (0, "m", []),
        (1, "e_a1", [(w("1"), "v", -1), (w("1"), "m", 1)]),
        (1, "e_a2", [(w("1"), "m", -1), (w("a"), "v", 1)]),
        (1, "e_b", [(w("1"), "v", -1), (w("b"), "v", 1)]),
        (2, "f", [(w("1"), "e_a1", 1), (w("1"), "e_a2", 1), (w("a"), "e_b", 1),
                  (w("b"), "e_a2", -1), (w("b"), "e_a1", -1), (w("1"), "e_b", -1)]),
    ])
    return s, FreeAbelianOracle(p)


def test_walks_cross_several_vertices():
    s, oracle = subdivided_z2()
    assert validate(s, oracle)
    got = connected_cycles_up_to_action(s, oracle, 1, 8)
    # the unit square has perimeter 6, the vertical domino 8
    assert counts(got) == {6: 2, 8: 2}
    for reps in got.values():
        for a in reps:
            assert is_cycle(a, s, oracle) and is_connected(a, s, oracle)


def loop_complex():
    """One vertex and one edge, a loop: F1 with its free oracle."""
    p = parse_presentation("<a |>")
    e = identity_word(p.generators)
    s = SkeletonSpec(2, p, [(0, "v", []), (1, "loop", [(e, "v", -1), (e, "v", 1)])])
    return s, FreeOracle(p)


def two_bigons():
    """Two vertices v and m with four edges between their lifts at one
    element, e0 and e2 from v to m and e1 and e3 back, so every step is the
    empty word, and a disk d on e0 + e1: F1 with its free oracle."""
    p = parse_presentation("<a |>")
    e = identity_word(p.generators)
    edges = [(1, f"e{i}", [(e, ends[0], -1), (e, ends[1], 1)])
             for i, ends in enumerate(["vm", "mv", "vm", "mv"])]
    disk = (2, "d", [(e, "e0", 1), (e, "e1", 1)])
    return SkeletonSpec(2, p, [(0, "v", []), (0, "m", []), *edges, disk]), FreeOracle(p)


def test_loop_edges_are_norm_one_cycles():
    s, oracle = loop_complex()
    got = connected_cycles_up_to_action(s, oracle, 1, 4)
    assert counts(got) == {1: 2}
    assert sorted(n for a in got[1] for _, n in a.terms) == [-1, 1]


def cyclic3():
    p = parse_presentation("<a | a^3>")
    return presentation_complex(p), p


def test_torsion_relator_closes_early():
    # a a has l1 exponent norm 2 yet closes in one step, so the l1 closing
    # cut must stay off when a relator has a nonzero exponent vector
    s, p = cyclic3()
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    for oracle in (BoundedBFSOracle(p),
                   FiniteTableOracle(p, ["e", "a", "a2"], table, {"a": 1})):
        got = connected_cycles_up_to_action(s, oracle, 1, 3)
        assert counts(got) == {3: 2}


def test_undecided_vertex_match_is_reported():
    s, p = cyclic3()
    with pytest.raises(OracleUndecidedError):
        connected_cycles_up_to_action(s, BoundedBFSOracle(p, radius=1), 1, 3)


def test_cycle_budget_names_the_phase():
    s, oracle = z2()
    with pytest.raises(BudgetExceededError, match="cycle enumeration .* of 8"):
        connected_cycles_up_to_action(s, oracle, 1, 8, node_cap=5)


def test_node_cap_is_enforced():
    s, oracle = z2()
    with pytest.raises(BudgetExceededError, match="chain enumeration .* norm 2 of 8"):
        reachable_chains(s, oracle, 1, 8, node_cap=10)


def test_dimension_guards():
    s, oracle = z2()
    with pytest.raises(InputError):
        reachable_chains(s, oracle, 0, 3)
    with pytest.raises(InputError):
        reachable_chains(s, oracle, 3, 3)


def z3():
    p = parse_presentation("<a, b, c | a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1>")
    return presentation_complex(p), FreeAbelianOracle(p)


def grid_search():
    """The grid under bounded-bfs: no normal forms, and the commutator is not
    C'(1/6), so equal elements are found by the relator search."""
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    return presentation_complex(p), BoundedBFSOracle(p, radius=12, sufficient_len=8)


def doubled_z2():
    """The grid with every square doubled: each pair is a 2-cycle of norm 2."""
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    w = lambda text: parse_word(text, p.generators)
    square = [(w("1"), "e_a", 1), (w("a"), "e_b", 1), (w("b"), "e_a", -1), (w("1"), "e_b", -1)]
    s = SkeletonSpec(2, p, [
        (0, "v", []),
        (1, "e_a", [(w("1"), "v", -1), (w("a"), "v", 1)]),
        (1, "e_b", [(w("1"), "v", -1), (w("b"), "v", 1)]),
        (2, "f", square),
        (2, "g", square),
    ])
    return s, FreeAbelianOracle(p)


def two_relator_grid():
    p = parse_presentation("<a, b | a b a^-1 b^-1, b a b^-1 a^-1>")
    return presentation_complex(p), FreeAbelianOracle(p)


INPUTS = {"z2": lambda: load_example("z2"), "surface2": lambda: load_example("surface2"),
          "f2": lambda: load_example("f2"), "zmod2": lambda: load_example("zmod2"),
          "z3": z3, "grid2": two_relator_grid, "subdivided": subdivided_z2,
          "grid-search": grid_search, "doubled": doubled_z2, "torus3": three_torus,
          "loop": loop_complex}


@pytest.mark.parametrize("name,size", [("z2", 8), ("f2", 8), ("surface2", 4), ("z3", 48),
                                       ("grid2", 8), ("zmod2", 1), ("subdivided", 1)])
def test_symmetry_group_sizes(name, size):
    # signed generator permutations that keep the relators up to rotation
    # and inversion; a finite table and a skeleton that is not the
    # presentation complex get the identity alone
    s, oracle = INPUTS[name]()
    maps = _symmetries(s, oracle)
    assert len(maps) == size
    assert all(y == x for x, y in maps[0].items())


@pytest.mark.parametrize("gens,size", [("a, b, c", 48), ("a, b, c, d", 1),
                                       ("a, b, c, d, e, f, g", 1)])
def test_symmetry_group_is_capped(gens, size):
    # every signed permutation of a free basis keeps the empty relator set:
    # 3! * 2^3 = 48 are kept, and 4! * 2^4 = 384 are past the cap
    p = parse_presentation(f"<{gens} |>")
    assert len(_symmetries(presentation_complex(p), FreeOracle(p))) == size


def _brute_class(letters):
    """The least rotation of the cyclic reduction of the letters or their
    inverse, by listing every rotation."""
    while len(letters) > 1 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    inverse = tuple((g, -e) for g, e in reversed(letters))
    return min(w[i:] + w[:i] for w in (letters, inverse) for i in range(len(w)))


def brute_symmetries(p):
    """Every signed generator permutation that maps the relator classes,
    with their multiplicities, onto themselves, found by trying them all."""
    n = len(p.generators)
    want = sorted(_brute_class(r.letters) for r in p.relators)
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            image = {g: (perm[g], signs[g]) for g in range(n)}
            got = sorted(_brute_class(tuple((image[g][0], image[g][1] * e) for g, e in r.letters))
                         for r in p.relators)
            if got == want:
                out.append(image)
    return out


@pytest.mark.parametrize("name", ["z2", "f2", "surface2", "z3", "grid2", "abab"])
def test_symmetries_match_the_brute_force_model(name):
    if name == "abab":
        p = parse_presentation("<a, b | a b a b>")
    else:
        p = INPUTS[name]()[0].presentation
    got = p.symmetries
    assert got[0] == {g: (g, 1) for g in range(len(p.generators))}
    assert len({tuple(sorted(g.items())) for g in got}) == len(got)
    assert (sorted(tuple(sorted(g.items())) for g in got)
            == sorted(tuple(sorted(g.items())) for g in brute_symmetries(p)))


@pytest.mark.parametrize("name,max_norm,want", [
    ("z2", 12, {4: 2, 6: 4, 8: 14, 10: 56, 12: 248}),
    ("surface2", 8, {8: 2}),
    ("f2", 10, {}),
    ("z3", 8, {4: 6, 6: 44, 8: 414}),
    ("grid2", 10, {4: 2, 6: 4, 8: 14, 10: 56}),
    ("subdivided", 10, {6: 2, 8: 2, 10: 4}),
    ("loop", 4, {1: 2}),
    ("zmod2", 6, {2: 2}),
    ("grid-search", 10, {4: 2, 6: 4, 8: 14, 10: 56}),
])
def test_orbits_partition_the_translation_orbits(name, max_norm, want):
    # the translation counts, from the enumeration by deck orbits alone;
    # by orbit-stabilizer each orbit holds a divisor of twice the group
    # order of them, and together they are all of them, once each
    s, oracle = INPUTS[name]()
    order = 2 * len(_symmetries(s, oracle))
    orbits = _closed_walks(s, oracle, max_norm)
    assert {n: sum(map(len, v)) for n, v in orbits.items() if v} == want
    for n, reps in orbits.items():
        images = [t for orbit in reps for t in orbit]
        assert len(set(images)) == len(images)
        assert all(order % len(orbit) == 0 and orbit[0] == min(orbit) for orbit in reps)
    assert counts(connected_cycles_up_to_action(s, oracle, 1, max_norm)) == want
