"""Chain algebra over lifted cells: boundaries, components, coboundary."""

import pickle
import random

import pytest

import window_oracle as wo
from test_enumeration import z3
from test_profile import three_torus, two_relator_grid

from chainprofile.errors import InputError, InvalidSkeletonError
from chainprofile.inputs import load_example
from chainprofile.profiles import Budget, minimal_filling, psi_table
from chainprofile.skeleton import (
    Chain,
    LiftedCell,
    SkeletonSpec,
    add_chains,
    boundary,
    build_chain,
    chain_from_json,
    chain_to_json,
    chains_equal,
    coboundary,
    components,
    identity_word,
    is_connected,
    is_cycle,
    is_subchain,
    negate,
    norm,
    presentation_complex,
    scale_chain,
    skeleton_fingerprint,
    subchains,
    translate,
    validate,
)
from chainprofile.words import (
    BoundedBFSOracle,
    FiniteTableOracle,
    FreeAbelianOracle,
    FreeOracle,
    compose,
    format_word,
    invert,
    parse_presentation,
    parse_word,
)


def z2():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    return presentation_complex(p), FreeAbelianOracle(p)


def f2():
    p = parse_presentation("<a, b>")
    return presentation_complex(p), FreeOracle(p)


def zmod2():
    p = parse_presentation("<a | a^2>")
    s = presentation_complex(p)
    return s, FiniteTableOracle(p, ["e", "a"], [[0, 1], [1, 0]], {"a": 1})


def cell(s, cid, text):
    dim, base = s.index[cid]
    return LiftedCell(dim, base, parse_word(text, s.presentation.generators))


def chain_repr(s, a):
    return [(format_word(c.word), s.cell_id(c.dim, c.base), n) for c, n in a.terms]


# ---------------------------------------------------------------- skeletons

def test_presentation_complex_cells():
    s, _ = z2()
    assert s.ids == [["v"], ["e_a", "e_b"], ["f0"]]
    assert s.n_cells(2) == 1


def test_relator_lift_boundary_z2():
    s, o = z2()
    stored = s.boundary_chain(2, 0)
    assert chain_repr(s, stored) == [
        ("1", "e_a", 1), ("a b a^-1", "e_a", -1),
        ("a", "e_b", 1), ("a b a^-1 b^-1", "e_b", -1),
    ]
    assert chain_repr(s, build_chain(stored.dim, stored.terms, o)) == [
        ("1", "e_a", 1), ("b", "e_a", -1),
        ("1", "e_b", -1), ("a", "e_b", 1),
    ]


def test_relator_lift_boundary_torsion():
    s, o = zmod2()
    stored = s.boundary_chain(2, 0)
    assert chain_repr(s, stored) == [("1", "e_a", 1), ("a", "e_a", 1)]
    assert norm(build_chain(stored.dim, stored.terms, o)) == 2


def test_validate_bundled_complexes():
    for s, o in (z2(), f2(), zmod2()):
        assert validate(s, o)


def test_validate_surface_group():
    p = parse_presentation("<a, b, c, d | a b a^-1 b^-1 c d c^-1 d^-1>")
    s = presentation_complex(p)
    o = BoundedBFSOracle(p, policy="length", sufficient_len="all", node_cap=200000)
    assert validate(s, o)


def test_skeleton_structural_errors():
    p = parse_presentation("<a>")
    e = identity_word(p.generators)
    with pytest.raises(InvalidSkeletonError):
        SkeletonSpec(2, p, [(0, "v", []), (1, "e_a", [(e, "nope", 1)])])
    with pytest.raises(InvalidSkeletonError):
        SkeletonSpec(2, p, [(0, "v", []), (0, "v", [])])
    with pytest.raises(InvalidSkeletonError):
        SkeletonSpec(2, p, [(1, "e_a", [])])
    with pytest.raises(InvalidSkeletonError):
        SkeletonSpec(2, p, [(0, "v", []), (2, "f", [(e, "v", 1)])])
    with pytest.raises(InvalidSkeletonError):
        SkeletonSpec(1, p, [(0, "v", [])])
    a = parse_word("a", p.generators)
    for bnd in ([],                                        # no ends
                [(a, "v", 1)],                             # one end
                [(e, "v", 1), (a, "v", 1)],                # two heads
                [(e, "v", -2), (a, "v", 2)],               # doubled
                [(e, "v", -1), (a, "v", 1), (a, "v", 0)]):  # a third term
        with pytest.raises(InvalidSkeletonError):
            SkeletonSpec(2, p, [(0, "v", []), (1, "e_a", bnd)])


def test_validate_rejects_broken_boundary():
    p = parse_presentation("<a>")
    e = identity_word(p.generators)
    a = parse_word("a", p.generators)
    s = SkeletonSpec(2, p, [
        (0, "v", []),
        (1, "e_a", [(e, "v", -1), (a, "v", 1)]),
        (2, "bad", [(e, "e_a", 1)]),          # open lid: dd = (a) - (1) != 0
    ])
    with pytest.raises(InvalidSkeletonError):
        validate(s, FreeOracle(p))


def test_boundary_of_square_matches_window_convention():
    s, o = z2()
    sq = boundary(build_chain(2, [(cell(s, "f0", "1"), 1)], o), s, o)
    # map exponent pairs onto the window cells: e_a at a^x b^y -> ("h", x, y)
    got = {}
    for c, n in sq.terms:
        x, y = (sum(sg for g, sg in c.word.letters if g == 0),
                sum(sg for g, sg in c.word.letters if g == 1))
        got[("h" if s.cell_id(1, c.base) == "e_a" else "v", x, y)] = n
    assert got == wo.face_boundary(("f", 0, 0))


def test_boundary_dimension_guard():
    s, o = z2()
    v = build_chain(0, [(cell(s, "v", "1"), 1)], o)
    with pytest.raises(InputError):
        boundary(v, s, o)


def test_boundary_of_boundary_random_chains():
    rng = random.Random(3)
    for s, o in (z2(), f2(), zmod2()):
        gens = s.presentation.generators
        for _ in range(60):
            terms = []
            for _ in range(rng.randrange(1, 4)):
                dim = 2 if s.n_cells(2) else 1
                base = rng.randrange(s.n_cells(dim))
                letters = [(rng.randrange(len(gens)), rng.choice((1, -1)))
                           for _ in range(rng.randrange(4))]
                word = parse_word(" ".join(
                    f"{gens[g]}^{sg}" for g, sg in letters) or "1", gens)
                terms.append((LiftedCell(dim, base, word), rng.choice((-2, -1, 1, 2))))
            a = build_chain(2 if s.n_cells(2) else 1, terms, o)
            if a.dim < 2 or not a.terms:
                continue
            assert not boundary(boundary(a, s, o), s, o).terms


def test_translation_commutes_with_boundary():
    s, o = z2()
    rng = random.Random(5)
    gens = s.presentation.generators
    for _ in range(40):
        word = parse_word(
            " ".join(rng.choice(["a", "a^-1", "b", "b^-1"]) for _ in range(rng.randrange(4)))
            or "1", gens)
        a = build_chain(2, [(LiftedCell(2, 0, parse_word(t, gens)), rng.choice((-2, -1, 1, 2)))
                            for t in ("1", "a", "b^2")], o)
        assert chains_equal(boundary(translate(word, a, o), s, o),
                            translate(word, boundary(a, s, o), o), o)


# ------------------------------------------------------------- canonical form

def test_build_chain_merges_equal_words():
    s, o = z2()
    raw = [(cell(s, "f0", "a b"), 1), (cell(s, "f0", "b a"), 2), (cell(s, "f0", "a"), -1)]
    a = build_chain(2, raw, o)
    assert chain_repr(s, a) == [("a", "f0", -1), ("a b", "f0", 3)]
    assert norm(a) == 4


def test_build_chain_merges_without_normal_forms():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    s = presentation_complex(p)
    o = BoundedBFSOracle(p, radius=12, sufficient_len=8)
    raw = [(cell(s, "f0", "a b"), 1), (cell(s, "f0", "b a"), 2)]
    a = build_chain(2, raw, o)
    assert len(a.terms) == 1 and a.terms[0][1] == 3
    assert format_word(a.terms[0][0].word) == "a b"     # shortlex-least spelling


def test_chain_addition_and_scaling():
    s, o = z2()
    a = build_chain(2, [(cell(s, "f0", "1"), 1)], o)
    b = build_chain(2, [(cell(s, "f0", "1"), -1), (cell(s, "f0", "a"), 2)], o)
    tot = add_chains(a, b, o)
    assert chain_repr(s, tot) == [("a", "f0", 2)]
    assert norm(scale_chain(tot, -3)) == 6
    assert not add_chains(tot, negate(tot), o).terms


# --------------------------------------------------- subchains and components

def test_subchain_enumeration_count():
    s, o = z2()
    a = build_chain(2, [(cell(s, "f0", "1"), 2), (cell(s, "f0", "a"), -1)], o)
    subs = list(subchains(a))
    assert len(subs) == 6
    assert all(is_subchain(b, a, o) for b in subs)
    assert sum(1 for b in subs if not b.terms) == 1
    assert sum(1 for b in subs if chains_equal(b, a, o)) == 1


def test_subchain_respects_sign_windows():
    s, o = z2()
    a = build_chain(2, [(cell(s, "f0", "1"), 2)], o)
    assert is_subchain(build_chain(2, [(cell(s, "f0", "1"), 1)], o), a, o)
    assert not is_subchain(build_chain(2, [(cell(s, "f0", "1"), -1)], o), a, o)
    assert not is_subchain(build_chain(2, [(cell(s, "f0", "1"), 3)], o), a, o)
    assert not is_subchain(build_chain(2, [(cell(s, "f0", "b"), 1)], o), a, o)


def test_doubled_cell_splits_into_two_copies():
    s, o = z2()
    a = build_chain(2, [(cell(s, "f0", "1"), 2)], o)
    assert not is_connected(a, s, o)
    comps = components(a, s, o)
    assert len(comps) == 2
    assert all(chain_repr(s, b) == [("1", "f0", 1)] for b in comps)


def test_single_cell_is_connected():
    s, o = z2()
    assert is_connected(build_chain(2, [(cell(s, "f0", "1"), 1)], o), s, o)
    assert not is_connected(Chain(2, ()), s, o)


def test_square_cycle_connected_far_squares_split():
    s, o = z2()
    one = build_chain(2, [(cell(s, "f0", "1"), 1)], o)
    sq = boundary(one, s, o)
    assert is_cycle(sq, s, o) and is_connected(sq, s, o)
    two = add_chains(one, build_chain(2, [(cell(s, "f0", "a^5"), 1)], o), o)
    btwo = boundary(two, s, o)
    assert not is_connected(btwo, s, o)
    comps = components(btwo, s, o)
    assert sorted(norm(b) for b in comps) == [4, 4]
    assert all(is_cycle(b, s, o) for b in comps)


def test_a_1_cycle_never_enters_the_subchain_search(monkeypatch):
    # a 1-cycle is connected exactly when it is one circuit, read off its
    # unit boundaries; the psi witness re-check asks this of every witness
    from chainprofile import skeleton
    from chainprofile.cache import verify_profile_entry
    from test_enumeration import loop_complex, subdivided_z2, two_bigons

    def no_search(*args):
        raise AssertionError("a 1-cycle entered the subchain search")

    monkeypatch.setattr(skeleton, "_find_component", no_search)
    s, o = z2()
    sq = boundary(build_chain(2, [(cell(s, "f0", "1"), 1)], o), s, o)
    domino = boundary(build_chain(2, [(cell(s, "f0", "1"), 1), (cell(s, "f0", "a"), 1)], o),
                      s, o)
    eight = add_chains(sq, translate(parse_word("a b", s.presentation.generators), sq, o), o)
    assert [is_connected(a, s, o) for a in (sq, domino, negate(domino), scale_chain(sq, 2),
                                            eight)] == [True, True, True, False, False]
    table = psi_table(s, o, 8)
    assert verify_profile_entry({"values": table.values, "witnesses": table.witnesses},
                                "psi", 8, s, o)
    s, o = subdivided_z2()
    assert is_connected(boundary(build_chain(2, [(cell(s, "f", "1"), 1)], o), s, o), s, o)
    # a loop edge is a circuit by itself, and only by itself
    s, o = loop_complex()
    loop = build_chain(1, [(cell(s, "loop", "1"), 1)], o)
    two = add_chains(loop, translate(parse_word("a", s.presentation.generators), loop, o), o)
    assert [is_connected(a, s, o) for a in (loop, negate(loop), scale_chain(loop, 2), two)] \
        == [True, True, False, False]
    # two bigons on the same two vertices: each vertex is left twice
    s, o = two_bigons()
    bigons = [build_chain(1, [(cell(s, f"e{i}", "1"), 1) for i in edges], o)
              for edges in ((0, 1), (2, 3), (0, 3), (0, 1, 2, 3))]
    assert [is_connected(a, s, o) for a in bigons] == [True, True, True, False]


def test_domino_boundary_is_one_cycle():
    s, o = z2()
    two = build_chain(2, [(cell(s, "f0", "1"), 1), (cell(s, "f0", "a"), 1)], o)
    b = boundary(two, s, o)
    assert norm(b) == 6
    assert is_connected(b, s, o)
    assert components(b, s, o) == [b]


def test_component_norm_laws_random():
    s, o = z2()
    rng = random.Random(9)
    words = ["1", "a", "b", "a b", "a^2", "a^-1 b", "b^2", "a^3"]
    for _ in range(80):
        terms = [(LiftedCell(2, 0, parse_word(t, s.presentation.generators)),
                  rng.choice((-2, -1, 1, 2)))
                 for t in rng.sample(words, rng.randrange(1, 5))]
        a = build_chain(2, terms, o)
        if not a.terms:
            continue
        comps = components(a, s, o)
        assert sum(norm(b) for b in comps) == norm(a)
        assert sum(norm(boundary(b, s, o)) for b in comps) == norm(boundary(a, s, o))
        assert all(is_connected(b, s, o) for b in comps)
        for b in comps:
            assert is_subchain(b, a, o)
            assert is_subchain(boundary(b, s, o), boundary(a, s, o), o)


def test_components_of_cycle_are_cycles():
    s, o = z2()
    one = build_chain(2, [(cell(s, "f0", "1"), 1)], o)
    ring = add_chains(boundary(one, s, o),
                      translate(parse_word("a^4 b", s.presentation.generators),
                                boundary(one, s, o), o), o)
    assert is_cycle(ring, s, o)
    for b in components(ring, s, o):
        assert is_cycle(b, s, o)


def test_window_connectivity_agreement_random():
    s, o = z2()
    gens = s.presentation.generators
    rng = random.Random(17)
    for _ in range(60):
        pts = set()
        while len(pts) < rng.randrange(1, 4):
            pts.add((rng.randrange(3), rng.randrange(3)))
        terms = []
        win = {}
        for (x, y) in pts:
            coeff = rng.choice((-2, -1, 1, 2))
            word = parse_word(f"a^{x} b^{y}", gens)
            terms.append((LiftedCell(2, 0, word), coeff))
            win[("f", x, y)] = coeff
        a = build_chain(2, terms, o)
        assert is_connected(a, s, o) == wo.is_connected(win)


# ------------------------------------------------------------------ coboundary

def test_coboundary_of_edge_z2():
    s, o = z2()
    cb = coboundary(cell(s, "e_a", "1"), s, o)
    assert chain_repr(s, cb) == [("1", "f0", 1), ("b^-1", "f0", -1)]


def test_coboundary_of_vertex_free():
    p = parse_presentation("<a>")
    s = presentation_complex(p)
    o = FreeOracle(p)
    cb = coboundary(cell(s, "v", "1"), s, o)
    assert chain_repr(s, cb) == [("1", "e_a", -1), ("a^-1", "e_a", 1)]


def test_coboundary_merges_torsion_hits():
    # in the order-2 group the two ends of the relator disk meet the same edge
    s, o = zmod2()
    cb = coboundary(cell(s, "e_a", "1"), s, o)
    assert chain_repr(s, cb) == [("1", "f0", 1), ("a", "f0", 1)]


def test_coboundary_top_dimension_guard():
    s, o = z2()
    with pytest.raises(InputError):
        coboundary(cell(s, "f0", "1"), s, o)


def test_coboundary_is_adjoint_to_boundary():
    for s, o in (z2(), f2(), zmod2()):
        gens = s.presentation.generators
        words = [parse_word(t, gens) for t in ("1", "a", "a^-1")]
        if len(gens) > 1:
            words += [parse_word(t, gens) for t in ("b", "a b", "b^-1 a")]
        for dim in range(s.q):
            for base in range(s.n_cells(dim)):
                for word in words:
                    c = LiftedCell(dim, base, o.normalize(word))
                    cb = coboundary(c, s, o)
                    for tbase in range(s.n_cells(dim + 1)):
                        for tword in words:
                            tau = LiftedCell(dim + 1, tbase, o.normalize(tword))
                            unit = build_chain(dim + 1, [(tau, 1)], o)
                            coeff_in_boundary = boundary(unit, s, o).coeff(c)
                            assert cb.coeff(tau) == coeff_in_boundary


def scanned_coboundary(c, s, o):
    """The coboundary by a scan of every cell one dimension up: each
    boundary term (h, base(c)) of tau puts tau at word(c) * h^-1."""
    return build_chain(c.dim + 1, [
        (LiftedCell(c.dim + 1, tbase, compose(c.word, invert(bc.word))), k)
        for tbase in range(s.n_cells(c.dim + 1))
        for bc, k in s.boundary_chain(c.dim + 1, tbase).terms if bc.base == c.base], o)


@pytest.mark.parametrize("make", [z2, lambda: load_example("surface2"), z3,
                                  two_relator_grid, three_torus],
                         ids=["z2", "surface2", "z3", "grid", "three_torus"])
def test_coboundary_matches_a_scan_of_the_cells_above(make):
    s, o = make()
    gens = s.presentation.generators
    words = [parse_word(t, gens) for t in ("1", "a", "b^-1", "a^-1 b^2")]
    for dim in range(s.q):
        for base in range(s.n_cells(dim)):
            for word in words:
                c = LiftedCell(dim, base, word)
                assert coboundary(c, s, o) == scanned_coboundary(c, s, o)


def test_incidences_are_built_once_per_skeleton(monkeypatch):
    # on the two-relator grid the walks read the edge steps and the filling
    # search reads the cofaces and the unit norms; loading builds none
    s, oracle = two_relator_grid()
    tables = ("cofaces", "unit_norms", "edge_steps")
    assert not set(tables) & set(vars(s))
    built = []
    for name in tables:
        prop = vars(SkeletonSpec)[name]
        monkeypatch.setattr(prop, "func", lambda self, real=prop.func, name=name:
                            built.append(name) or real(self))
    psi_table(s, oracle, 8)
    cyc = boundary(build_chain(2, [(cell(s, "f0", "1"), 1), (cell(s, "f0", "a"), 1)],
                               oracle), s, oracle)
    assert norm(minimal_filling(cyc, s, oracle)) == 2
    assert sorted(built) == sorted(tables)


# ---------------------------------------------------------------- persistence

def test_chain_json_round_trip():
    s, o = z2()
    a = build_chain(1, [(cell(s, "e_a", "a b^-1"), 2), (cell(s, "e_b", "1"), -1)], o)
    data = chain_to_json(a, s)
    assert data["dim"] == 1
    back = chain_from_json(data, s, o)
    assert chains_equal(back, a, o)


def test_chain_json_errors():
    s, o = z2()
    with pytest.raises(InputError):
        chain_from_json({"dim": 1, "terms": [{"word": "1", "base": "zzz", "coeff": 1}]}, s, o)
    with pytest.raises(InputError):
        chain_from_json({"dim": 2, "terms": [{"word": "1", "base": "e_a", "coeff": 1}]}, s, o)
    with pytest.raises(InputError):
        chain_from_json({"dim": 1}, s, o)


def test_fingerprint_tracks_skeleton_and_oracle():
    s, o = z2()
    s2, _ = z2()
    assert skeleton_fingerprint(s, o) == skeleton_fingerprint(s2, o)
    p = s.presentation
    assert skeleton_fingerprint(s, FreeOracle(parse_presentation("<a, b>"))) != \
        skeleton_fingerprint(s, o)


# ------------------------------------------------------------- extra dimension

def order2_with_3cell():
    """The order-2 group complex extended one dimension up."""
    p = parse_presentation("<a | a^2>")
    e = identity_word(p.generators)
    a = parse_word("a", p.generators)
    s = SkeletonSpec(3, p, [
        (0, "v", []),
        (1, "e_a", [(e, "v", -1), (a, "v", 1)]),
        (2, "f0", [(e, "e_a", 1), (a, "e_a", 1)]),
        (3, "t0", [(e, "f0", 1), (a, "f0", -1)]),
    ])
    return s, FiniteTableOracle(p, ["e", "a"], [[0, 1], [1, 0]], {"a": 1})


def test_three_dimensional_complex_validates():
    s, o = order2_with_3cell()
    assert validate(s, o)
    t = build_chain(3, [(LiftedCell(3, 0, identity_word(s.presentation.generators)), 1)], o)
    b = boundary(t, s, o)
    assert norm(b) == 2
    assert not boundary(b, s, o).terms
    assert is_connected(b, s, o)


# ------------------------------------------------------------- value objects

def _value_objects():
    """Two equal but distinct copies of a Word, LiftedCell, Chain,
    Presentation and Budget, each with its fields."""
    def make():
        p = parse_presentation("<a, b | a b a^-1 b^-1>")
        w = parse_word("a b^-1", p.generators)
        cell = LiftedCell(1, 0, w)
        return [(w, (w.gens, w.letters)), (cell, (1, 0, w)),
                (Chain(1, ((cell, 2),)), (1, ((cell, 2),))),
                (p, (p.generators, p.relators)), (Budget(3, 7), (3, 7))]
    return zip(make(), make())


def test_equal_fields_give_equal_values_and_hashes():
    for (x, fields), (y, _) in _value_objects():
        assert x is not y and x == y and hash(x) == hash(y) == hash(fields)
        # another class never compares equal, not even a tuple of the fields
        assert x != fields and not x == fields
    assert Chain(1) == Chain(1, ()) and hash(Chain(1)) == hash(Chain(1, ()))
    a = parse_word("a", ("a",))
    assert LiftedCell(1, 0, a) != LiftedCell(1, 1, a) != LiftedCell(2, 1, a)


def test_value_reprs_spell_their_fields():
    w = parse_word("a b^-1", ("a", "b"))
    cell = LiftedCell(1, 0, w)
    assert repr(w) == "Word('a b^-1')"
    assert repr(cell) == "LiftedCell(dim=1, base=0, word=Word('a b^-1'))"
    assert repr(Chain(1, ((cell, -1),))) == \
        "Chain(dim=1, terms=((LiftedCell(dim=1, base=0, word=Word('a b^-1')), -1),))"
    assert repr(parse_presentation("<a | a^2>")) == \
        "Presentation(generators=('a',), relators=(Word('a^2'),))"


def test_values_refuse_assignment():
    for (x, _), _ in _value_objects():
        name = x._fields[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_values_survive_pickling():
    # the worker pool pickles fillings back from forked workers
    s, o = z2()
    chain = boundary(build_chain(2, [(LiftedCell(2, 0, identity_word(("a", "b"))), 1)], o), s, o)
    for x in [chain, *(x for (x, _), _ in _value_objects())]:
        y = pickle.loads(pickle.dumps(x))
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
