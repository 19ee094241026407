"""The one-pass chain constructor.

It gives the chains of the three-pass reference (`chain_reference`),
spellings included, and asks the oracle the same questions in the same
order; the chain writers hand it the terms the reference would build; a
stored chain builds one lifted cell per term; and a filling witness is
checked against its cycle as one chain, matching cells by element.
"""

import random

import pytest

from chain_reference import reference_chain
from test_enumeration import z3

from chainprofile.errors import ChainProfileError, OracleUndecidedError
from chainprofile.inputs import load_example, parse_chain
from chainprofile.profiles import _check_filling
from chainprofile.skeleton import (
    LiftedCell,
    boundary,
    build_chain,
    chain_from_json,
    chain_to_json,
    chains_equal,
    coboundary,
    presentation_complex,
    translate,
)
from chainprofile.words import (
    BoundedBFSOracle,
    FiniteTableOracle,
    Word,
    compose,
    parse_presentation,
)


def klein():
    p = parse_presentation("<a, b | a^2, b^2, a b a^-1 b^-1>")
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return presentation_complex(p), FiniteTableOracle(p, ["e", "a", "b", "ab"], table,
                                                      {"a": 1, "b": 2})


def grid_bfs():
    p = parse_presentation("<a, b | a b a^-1 b^-1, b a b^-1 a^-1>")
    return presentation_complex(p), BoundedBFSOracle(p, radius=12, sufficient_len=8)


# name -> (skeleton and oracle, longest random word before respelling);
# grid-bfs words stay short enough that every comparison is decided
CASES = {
    "z2": (lambda: load_example("z2"), 4),
    "z3": (z3, 4),
    "f2": (lambda: load_example("f2"), 4),
    "klein": (klein, 4),
    "surface2": (lambda: load_example("surface2"), 4),
    "grid-bfs": (grid_bfs, 2),
}


def _raw_pairs(s, rng, dim, length):
    """Random raw (LiftedCell, coeff) pairs over every base of dim: words
    left unreduced, cells spelled several ways (a relator or x x^-1
    inserted), some of them cancelling, and coefficients of 0."""
    gens = s.presentation.generators
    relators = [r.letters for r in s.presentation.relators]
    letters = [(g, e) for g in range(len(gens)) for e in (1, -1)]

    def respell(w):
        w = list(w)
        i = rng.randrange(len(w) + 1)
        if relators and rng.random() < 0.6:
            r = rng.choice(relators)
            w[i:i] = r if rng.random() < 0.5 else [(g, -e) for g, e in reversed(r)]
        else:
            x = rng.choice(letters)
            w[i:i] = [x, (x[0], -x[1])]
        return w

    terms = []
    for _ in range(rng.randrange(1, 10)):
        base = rng.randrange(s.n_cells(dim))
        w = [rng.choice(letters) for _ in range(rng.randrange(length + 1))]
        n = rng.choice((-2, -1, 0, 1, 2))
        terms.append((base, w, n))
        roll = rng.random()
        if roll < 0.3:
            terms.append((base, respell(w), -n))
        elif roll < 0.6:
            terms.append((base, respell(w), rng.choice((-1, 1))))
    rng.shuffle(terms)
    return [(LiftedCell(dim, base, Word(gens, tuple(w))), n) for base, w, n in terms]


def _outcome(build, oracle, monkeypatch):
    """(chain or "undecided", the words asked of is_trivial, in order)."""
    asked = []
    real = type(oracle).is_trivial

    def recorded(self, w):
        asked.append(w.letters)
        return real(self, w)
    with monkeypatch.context() as m:
        m.setattr(type(oracle), "is_trivial", recorded)
        try:
            return build(), asked
        except OracleUndecidedError:
            return "undecided", asked


@pytest.mark.parametrize("name", CASES)
def test_constructor_matches_the_three_pass_reference(name, monkeypatch):
    make, length = CASES[name]
    s, oracle = make()
    rng = random.Random(f"chains:{name}")
    dims = [d for d in (1, 2) if s.n_cells(d)]
    for _ in range(60):
        dim = rng.choice(dims)
        pairs = _raw_pairs(s, rng, dim, length)
        got = _outcome(lambda: build_chain(dim, pairs, oracle), oracle, monkeypatch)
        want = _outcome(lambda: reference_chain(dim, pairs, oracle), oracle, monkeypatch)
        assert got == want


@pytest.mark.parametrize("name", CASES)
def test_writers_hand_the_constructor_the_reference_terms(name):
    make, length = CASES[name]
    s, oracle = make()
    rng = random.Random(f"writers:{name}")
    gens = s.presentation.generators
    dims = [d for d in (1, 2) if s.n_cells(d)]
    for _ in range(20):
        dim = rng.choice(dims)
        a = build_chain(dim, _raw_pairs(s, rng, dim, length), oracle)
        da = boundary(a, s, oracle)
        assert da == reference_chain(dim - 1, [
            (LiftedCell(dim - 1, bc.base, compose(c.word, bc.word)), bn * n)
            for c, n in a.terms for bc, bn in s.boundary_chain(dim, c.base).terms], oracle)
        g = Word(gens, tuple(rng.choice([(0, 1), (0, -1), (1, 1)]) for _ in range(3)))
        assert translate(g, a, oracle) == reference_chain(dim, [
            (LiftedCell(dim, c.base, compose(g, c.word)), n) for c, n in a.terms], oracle)
        for c, _ in da.terms[:2]:
            assert coboundary(c, s, oracle) == reference_chain(dim, [
                (LiftedCell(dim, upper, compose(c.word, ~h)), k)
                for upper, h, k in s.cofaces[dim - 1][c.base]], oracle)


def test_stored_chains_build_one_lifted_cell_per_term(monkeypatch):
    s, oracle = load_example("surface2")
    inits = []
    real = LiftedCell.__init__

    def counted(self, *args):
        inits.append(args)
        real(self, *args)
    monkeypatch.setattr(LiftedCell, "__init__", counted)
    # the first two terms are one cell, spelled two ways
    chain = parse_chain("(a b, e_a) + (a b a^-1 b^-1 c d c^-1 d^-1 a b, e_a) "
                        "- (1, e_b) + (a, e_c) - (a, e_c) + 3*(c d^-1, e_d)", s, oracle)
    assert [n for _, n in chain.terms] == [2, -1, 3]
    assert len(inits) == len(chain.terms)
    inits.clear()
    assert chain_from_json(chain_to_json(chain, s), s, oracle) == chain
    assert len(inits) == len(chain.terms)


def test_filling_check_matches_cells_by_element():
    s, oracle = load_example("surface2")
    face = parse_chain("(1, f0)", s, oracle)
    # the boundary ends on the whole relator; the cycle spells that cell 1
    cycle = parse_chain("(1, e_a) + (a, e_b) - (a b a^-1, e_a) - (a b a^-1 b^-1, e_b) "
                        "+ (a b a^-1 b^-1, e_c) + (a b a^-1 b^-1 c, e_d) "
                        "- (a b a^-1 b^-1 c d c^-1, e_c) - (1, e_d)", s, oracle)
    assert boundary(face, s, oracle) != cycle
    assert chains_equal(boundary(face, s, oracle), cycle, oracle)
    _check_filling(face, cycle, s, oracle)
    extra = parse_chain("(1, f0) + (a, f0)", s, oracle)
    with pytest.raises(ChainProfileError):
        _check_filling(extra, cycle, s, oracle)
    short = parse_chain("(1, e_a) + (a, e_b)", s, oracle)
    with pytest.raises(ChainProfileError):
        _check_filling(face, short, s, oracle)
