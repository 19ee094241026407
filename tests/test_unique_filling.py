"""Unique fillings by relator rewriting on aspherical one-relator complexes.

The rewriting path of `minimal_filling` must agree with the filling search
and with the independent grid model, keep the fill cap, refuse every input
outside its gate (a finite-quotient oracle included), and hand a walk it
cannot finish to the search.
"""

from fractions import Fraction

import pytest
import window_oracle as win

from chainprofile.enumeration import connected_cycles_up_to_action, cycle_orbits
from chainprofile.errors import BudgetExceededError, ChainProfileError
from chainprofile.inputs import load_example, parse_chain
from chainprofile.profiles import (
    Budget,
    _cycle_walks,
    _filling,
    _label_walks,
    _rewritten_filling,
    _search_filling,
    filling_volume,
    minimal_filling,
    psi_table,
)
from chainprofile.skeleton import (
    LiftedCell,
    boundary,
    build_chain,
    chain_from_json,
    chain_to_json,
    chains_equal,
    norm,
    presentation_complex,
)
from chainprofile.words import (
    BoundedBFSOracle,
    FiniteTableOracle,
    FreeAbelianOracle,
    Word,
    WordOracle,
    exponent_vector,
    parse_presentation,
    parse_word,
)

from test_enumeration import subdivided_z2, two_bigons, z3


def face_boundary(s, oracle, words):
    """Boundary of the sum of relator cells f0 at the given words."""
    gens = s.presentation.generators
    faces = build_chain(2, [(LiftedCell(2, 0, parse_word(w, gens)), 1) for w in words],
                        oracle)
    return boundary(faces, s, oracle)


def rewritten(cyc, s, oracle):
    """The rewriting route on the closed walks of a 1-cycle."""
    return _rewritten_filling(_cycle_walks(cyc, s, oracle), s, oracle, Budget())


def test_presentation_complex_is_built_once_per_skeleton(monkeypatch):
    # the walks' symmetries and the filling gate share one check of the
    # skeleton against its presentation complex
    from chainprofile import profiles, skeleton

    s, oracle = load_example("z2")
    built = []
    real = skeleton.presentation_complex
    monkeypatch.setattr(skeleton, "presentation_complex", lambda p: built.append(p) or real(p))
    profiles.psi_table(s, oracle, 8)
    minimal_filling(face_boundary(s, oracle, ["1", "a"]), s, oracle)
    assert built == [s.presentation]


def test_rewriting_budget_counts_steps():
    # the 2 x 3 disk takes one rewriting step per face
    s, oracle = load_example("z2")
    cyc = face_boundary(s, oracle, [f"a^{x} b^{y}" for x in range(3) for y in range(2)])
    with pytest.raises(BudgetExceededError,
                       match="^filling rewriting took more than 3 steps$"):
        minimal_filling(cyc, s, oracle, Budget(node_cap=3))
    assert norm(minimal_filling(cyc, s, oracle, Budget(node_cap=6))) == 6


@pytest.mark.parametrize("route", ["_rewritten_filling", "_search_filling"])
def test_minimal_filling_checks_what_either_route_returns(monkeypatch, route):
    # the routes only produce; minimal_filling accepts
    from chainprofile import profiles

    s, oracle = load_example("z2")
    cyc = face_boundary(s, oracle, ["1"])
    wrong = build_chain(2, [(LiftedCell(2, 0, parse_word("a", s.presentation.generators)), 1)],
                        oracle)
    monkeypatch.setattr(profiles, "_rewritten_filling", lambda *args: None)
    monkeypatch.setattr(profiles, route, lambda *args: wrong)
    with pytest.raises(ChainProfileError, match="^filling witness failed verification$"):
        minimal_filling(cyc, s, oracle)


def test_gate_admits_the_bundled_one_relator_inputs():
    for name in ("z2", "surface2"):
        s, oracle = load_example(name)
        cyc = face_boundary(s, oracle, ["1"])
        got = rewritten(cyc, s, oracle)
        assert norm(got) == 1 and chains_equal(boundary(got, s, oracle), cyc, oracle)
        assert s.presentation.rules is s.presentation.rules  # computed once


@pytest.mark.parametrize("text,oracle_of", [
    ("<a, b | a b a^-1 b^-1, b a b^-1 a^-1>", FreeAbelianOracle),
    ("<a, b | a b a b>", BoundedBFSOracle),
    ("<a, b | a b a^-1>", BoundedBFSOracle),
])
def test_gate_refuses_and_the_search_answers(text, oracle_of):
    p = parse_presentation(text)
    s, oracle = presentation_complex(p), oracle_of(p)
    cyc = face_boundary(s, oracle, ["1"])
    assert rewritten(cyc, s, oracle) is None
    got = minimal_filling(cyc, s, oracle)
    assert norm(got) == 1
    assert chain_to_json(got, s) == chain_to_json(_search_filling(cyc, s, oracle), s)


def test_gate_refuses_explicit_cells_that_differ():
    s, oracle = subdivided_z2()
    cyc = face_boundary(s, oracle, ["1", "a"])
    assert rewritten(cyc, s, oracle) is None
    got = minimal_filling(cyc, s, oracle)
    assert norm(got) == 2
    assert chain_to_json(got, s) == chain_to_json(_search_filling(cyc, s, oracle), s)


def test_finite_quotient_oracle_takes_the_search():
    # with a Z/4 x Z/4 table the cover is a finite torus, where H2 != 0: the
    # 3 x 3 block has the same boundary as the other 7 cells, negated
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    elements = [(x, y) for x in range(4) for y in range(4)]
    table = [[elements.index(((x + u) % 4, (y + v) % 4)) for u, v in elements]
             for x, y in elements]
    s = presentation_complex(p)
    oracle = FiniteTableOracle(p, elements, table,
                               {"a": elements.index((1, 0)), "b": elements.index((0, 1))})
    block = [f"a^{x} b^{y}" for x in range(3) for y in range(3)]
    cyc = face_boundary(s, oracle, block)
    assert norm(cyc) == 12
    # the gate refuses the table, whose group may be a quotient: here the
    # block is a filling of norm 9 but not the least
    assert rewritten(cyc, s, oracle) is None
    gens = s.presentation.generators
    faces = build_chain(2, [(LiftedCell(2, 0, parse_word(w, gens)), 1) for w in block], oracle)
    assert chains_equal(boundary(faces, s, oracle), cyc, oracle) and norm(faces) == 9
    got = minimal_filling(cyc, s, oracle)
    assert norm(got) == 7
    assert chain_to_json(got, s) == chain_to_json(_search_filling(cyc, s, oracle), s)


def test_abelian_oracle_is_the_group_only_for_a_commutator():
    # the free abelian oracle on a non-abelian one-relator group is a
    # quotient, so the gate leaves it to the search; with a commutator for
    # every pair of generators it is the group
    for text, faithful in (("<a, b | a b a^-1 b^-1>", True),
                           ("<a, b | b a^-1 b^-1 a>", True),
                           ("<a, b | a^2 b a^-2 b^-1>", False),
                           ("<a, b, c | a b a^-1 b^-1>", False)):
        p = parse_presentation(text)
        s = presentation_complex(p)
        assert p.aspherical and s.is_presentation_complex
        assert FreeAbelianOracle(p).presents_group is faithful
    z3 = parse_presentation("<a, b, c | a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1>")
    assert FreeAbelianOracle(z3).presents_group
    s, oracle = load_example("surface2")
    assert oracle.presents_group
    assert not FreeAbelianOracle(s.presentation).presents_group


def test_rewriting_equals_search_on_the_grid_to_norm_8():
    s, oracle = load_example("z2")
    cycles = connected_cycles_up_to_action(s, oracle, 1, 8)
    for reps in cycles.values():
        for cyc in reps:
            assert (chain_to_json(minimal_filling(cyc, s, oracle), s)
                    == chain_to_json(_search_filling(cyc, s, oracle), s))


def test_rewriting_matches_grid_model_to_norm_10():
    s, oracle = load_example("z2")
    kind = {0: "h", 1: "v"}
    cycles = connected_cycles_up_to_action(s, oracle, 1, 10)
    assert sum(map(len, cycles.values())) == 76
    for reps in cycles.values():
        for cyc in reps:
            # the half rules sort every grid word, so no walk is left over
            assert rewritten(cyc, s, oracle) is not None
            grid = {(kind[c.base], *exponent_vector(c.word)): n for c, n in cyc.terms}
            assert filling_volume(cyc, s, oracle) == win.filling_volume(grid)
            # minimal_filling rewrites every grid cycle, so check the search too
            assert norm(_search_filling(cyc, s, oracle)) == win.filling_volume(grid)


def test_rewriting_equals_search_on_the_surface():
    # psi(8) = 1: the only connected cycles to norm 8 are the two octagons
    s, oracle = load_example("surface2")
    cycles = connected_cycles_up_to_action(s, oracle, 1, 8)
    assert {n: len(reps) for n, reps in cycles.items() if reps} == {8: 2}
    for cyc in cycles[8]:
        assert rewritten(cyc, s, oracle)
        fast = minimal_filling(cyc, s, oracle)
        assert norm(fast) == norm(_search_filling(cyc, s, oracle)) == 1
        assert chains_equal(boundary(fast, s, oracle), cyc, oracle)


@pytest.mark.parametrize("name, max_norm", [("z2", 10), ("surface2", 8)])
def test_walk_words_fill_as_their_chains(monkeypatch, name, max_norm):
    # psi_table fills each orbit from the labels of its walks: the filling
    # is the chain's, byte for byte, with neither the cycle check nor the
    # split of the chain into walks
    from chainprofile import profiles

    s, oracle = load_example(name)
    orbits = cycle_orbits(s, oracle, 1, max_norm)
    pairs = [(a, labels) for reps in orbits.values() for _, translates, images in reps
             for a, labels in zip(translates(), images)]
    assert len(pairs) == {"z2": 76, "surface2": 2}[name]
    want = [chain_to_json(minimal_filling(a, s, oracle), s) for a, _ in pairs]
    for dodged in ("boundary", "_cycle_walks"):
        monkeypatch.setattr(profiles, dodged, None)
    got = [chain_to_json(_filling(a, s, oracle, Budget(), _label_walks(s, labels)), s)
           for a, labels in pairs]
    assert got == want


def test_surface2_fills_read_each_vertex_once(monkeypatch):
    # without normal forms a vertex word is matched by is_trivial; the walk
    # split matches each once, with no separate boundary chain to match
    s, oracle = load_example("surface2")
    witness = chain_from_json(psi_table(s, oracle, 8).witnesses[8]["cycle"], s, oracle)
    disk = face_boundary(s, oracle, ["1", "a"])
    asked = []
    is_trivial = oracle.is_trivial
    monkeypatch.setattr(oracle, "is_trivial", lambda w: asked.append(w) or is_trivial(w))
    counts = []
    for cyc in (witness, disk):
        asked.clear()
        fill = minimal_filling(cyc, s, oracle)
        counts.append((norm(fill), len(asked)))
    assert counts == [(1, 4), (2, 6)]


def test_a_walk_of_empty_steps_closes():
    # each step of a bigon is the empty word, so a walk is told closed by
    # its vertex, not by its letters
    s, oracle = two_bigons()
    for k in (1, 2):
        cyc = parse_chain(f"{k}*(1, e0) + {k}*(1, e1)", s, oracle)
        assert _cycle_walks(cyc, s, oracle) == [(parse_word("1", ("a",)), ())] * k
        assert chain_to_json(minimal_filling(cyc, s, oracle), s)["terms"] == [
            {"word": "1", "base": "d", "coeff": k}]


def test_walk_words_outside_the_gate_take_the_chain_route(monkeypatch):
    # Z^3 has three relators: the search fills the chain, walks or not
    from chainprofile import profiles

    s, oracle = z3()
    searched = []
    search = profiles._search_filling
    monkeypatch.setattr(profiles, "_search_filling",
                        lambda cyc, *args: searched.append(cyc) or search(cyc, *args))
    for reps in cycle_orbits(s, oracle, 1, 6).values():
        for rep, _, images in reps:
            with_walks = _filling(rep, s, oracle, Budget(), _label_walks(s, images[0]))
            assert searched.pop() is rep
            assert chain_to_json(with_walks, s) == chain_to_json(
                minimal_filling(rep, s, oracle), s)


def test_grid_squares_and_multiples():
    s, oracle = load_example("z2")
    three_by_three = [f"a^{x} b^{y}" for x in range(3) for y in range(3)]
    assert filling_volume(face_boundary(s, oracle, three_by_three), s, oracle) == 9
    # coefficient 3 on every edge: the square walked three times
    tripled = parse_chain("3*(1, e_a) + 3*(a, e_b) - 3*(b, e_a) - 3*(1, e_b)", s, oracle)
    assert filling_volume(tripled, s, oracle) == 3
    apart = face_boundary(s, oracle, ["1", "a^5 b^-2"])
    assert norm(apart) == 8
    assert filling_volume(apart, s, oracle) == 2


def test_fill_cap_names_the_unique_norm():
    s, oracle = load_example("z2")
    cyc = face_boundary(s, oracle, ["1", "a", "b"])
    with pytest.raises(BudgetExceededError, match="norm 3"):
        minimal_filling(cyc, s, oracle, budget=Budget(fill_volume_cap=2))
    assert filling_volume(cyc, s, oracle, budget=Budget(fill_volume_cap=3)) == 3


class BS13Oracle(WordOracle):
    """BS(1, 3) = <a, b | b a b^-1 a^-3> as affine maps of the rationals,
    a: x -> x + 1 and b: x -> 3x.  The state of an element is its map
    x -> m x + t as (m, t), and the normal form for 3^k x + c / 3^j is
    b^-j a^c b^(j+k); the default `is_trivial` compares states."""

    kind = "bs13"
    has_normal_forms = True

    def _map(self, state, w):
        m, t = state
        for g, e in w.letters:
            if g == 0:
                t += m * e
            else:
                m *= Fraction(3) ** e
        return m, t

    def start(self):
        return Fraction(1), Fraction(0)

    def step(self, state, w):
        return self._map(state, w)

    def normalize(self, w):
        m, t = self._map((Fraction(1), Fraction(0)), w)
        k = j = 0
        while m > 1:
            m, k = m / 3, k + 1
        while m < 1:
            m, k = m * 3, k - 1
        while t.denominator > 3 ** j:
            j += 1
        c = t.numerator
        letters = (((1, -1),) * j + ((0, 1 if c > 0 else -1),) * abs(c)
                   + ((1, 1 if j + k > 0 else -1),) * abs(j + k))
        return Word(w.gens, letters)


def test_stuck_rewriting_falls_back_to_the_search():
    # a^-2 (b^-1 a b) a^2 (b^-1 a b)^-1 is trivial in BS(1, 3), but no rule
    # applies to some walk of it, so the search supplies the filling
    p = parse_presentation("<a, b | b a b^-1 a^-3>")
    s, oracle = presentation_complex(p), BS13Oracle(p)
    # inside the gate: the walk stalls, not the gate
    assert oracle.presents_group and p.aspherical and s.is_presentation_complex
    cyc = parse_chain("-(a^-1, e_a) - (b^-1, e_a) - (a^-2, e_a) + (a^-2 b^-1, e_a)"
                      " + (b^-1 a^-2 b, e_a) + (b^-1 a^-5 b, e_a) + (b^-1, e_b)"
                      " - (b^-1 a, e_b) - (a^-2 b^-1, e_b) + (b^-1 a^-5, e_b)", s, oracle)
    assert rewritten(cyc, s, oracle) is None
    got = minimal_filling(cyc, s, oracle)
    assert norm(got) == 4
    assert chains_equal(boundary(got, s, oracle), cyc, oracle)
