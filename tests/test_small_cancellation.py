"""Dehn's algorithm inside the bounded-bfs oracle, for C'(1/6) relators.

The verdicts of the Dehn path must equal those of the search it replaces;
the search is reached by turning the Dehn path off on one instance.
"""

import random

import pytest

from chainprofile.inputs import load_example
from chainprofile.profiles import psi_table
from chainprofile.words import (
    BoundedBFSOracle,
    OracleVerdict,
    Word,
    _reduce_letters,
    parse_presentation,
    parse_word,
    small_cancellation_c6,
)

from test_words import _reduced_words

SURFACE2 = "<a, b, c, d | a b a^-1 b^-1 c d c^-1 d^-1>"
GENUS3 = "<a, b, c, d, e, f | a b a^-1 b^-1 c d c^-1 d^-1 e f e^-1 f^-1>"


def oracles(text):
    """(Dehn oracle, search oracle) with the bundled surface2 settings."""
    p = parse_presentation(text)
    dehn, search = (BoundedBFSOracle(p, policy="length", sufficient_len="all",
                                     node_cap=200000) for _ in range(2))
    search._dehn = False
    assert dehn._dehn
    return p, dehn, search


def conjugate_products(p, rng, count, max_conjugator=3):
    """Seeded products of 1-3 conjugates u r^+-1 u^-1 of the relators."""
    out = []
    for _ in range(count):
        letters = []
        for _ in range(rng.randint(1, 3)):
            r = rng.choice(p.relators).letters
            if rng.random() < 0.5:
                r = tuple((g, -s) for g, s in reversed(r))
            u = tuple((rng.randrange(len(p.generators)), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, max_conjugator)))
            letters += u + r + tuple((g, -s) for g, s in reversed(u))
        out.append(Word(p.generators, _reduce_letters(letters)))
    return out


@pytest.mark.parametrize("text", [SURFACE2, GENUS3])
def test_c6_accepts_surface_relators(text):
    assert small_cancellation_c6(parse_presentation(text).relators)


@pytest.mark.parametrize("text", [
    "<a, b | a b a^-1 b^-1>",          # a piece of 1 is not below 4/6
    "<a | a^3>",                       # a proper power
    "<a, b | a^2, b^2>",               # proper powers
    "<a, b | a b a^-1>",               # not cyclically reduced
    # each relator alone is C'(1/6), but they share the piece [a,b]
    "<a, b, c, d, e, f | a b a^-1 b^-1 c d c^-1 d^-1, a b a^-1 b^-1 e f e^-1 f^-1>",
    SURFACE2[:-1] + ", b a b^-1 a^-1 d c d^-1 c^-1>",   # a relator and its inverse
])
def test_c6_refuses(text):
    p = parse_presentation(text)
    assert not small_cancellation_c6(p.relators)
    assert not BoundedBFSOracle(p)._dehn


def test_bundled_surface_takes_the_dehn_path_with_the_filling_rules():
    s, oracle = load_example("surface2")
    assert oracle._dehn
    # the oracle and the filling rewriting share one rule table, inside the gate
    assert s.presentation.aspherical and s.is_presentation_complex
    assert s.presentation.rules is oracle.presentation.rules
    assert oracle.name == "bounded-bfs:radius=None:policy=length:sufficient=all:cap=200000"


def test_dehn_decides_past_an_explicit_radius():
    # Dehn's verdict is exact at every length, so the radius, which bounds
    # only the search, leaves no word Undecided
    p = parse_presentation(SURFACE2)
    oracle = BoundedBFSOracle(p, radius=4)
    assert oracle._dehn
    for text, want in (("a b a^-1 b^-1 c d c^-1 d^-1", OracleVerdict.TRIVIAL),
                       ("a^2 b a^-1 b^-1 c d c^-1 d^-1 a^-1", OracleVerdict.TRIVIAL),
                       ("a b a^-1 b^-1 d c d^-1 c^-1", OracleVerdict.NONTRIVIAL)):
        assert oracle.is_trivial(parse_word(text, p.generators)) is want, text


def test_dehn_matches_the_search_on_the_surface():
    p, dehn, search = oracles(SURFACE2)
    words = _reduced_words(p.generators, 5)
    assert len(words) == 22409
    words += conjugate_products(p, random.Random(23), 300)
    words += [parse_word(t, p.generators) for t in (
        "a b a^-1 b^-1 a b a^-1 b^-1", "a c a^-1 c^-1",
        "a b a^-1 b^-1 d c d^-1 c^-1", "a^2 b a^-2 b^-1", "a c b d a^-1 c^-1 b^-1 d^-1")]
    verdicts = {}
    for u in words:
        got = dehn.is_trivial(u)
        assert got is search.is_trivial(u), u
        verdicts[got] = verdicts.get(got, 0) + 1
    assert OracleVerdict.UNDECIDED not in verdicts
    assert verdicts[OracleVerdict.TRIVIAL] >= 300
    assert search._known and not dehn._known


def test_dehn_matches_the_search_on_genus_three():
    p, dehn, search = oracles(GENUS3)
    rng = random.Random(29)
    words = conjugate_products(p, rng, 40, max_conjugator=2)

    def letters(k):
        return [(rng.randrange(6), rng.choice((1, -1))) for _ in range(k)]

    for _ in range(200):
        words.append(Word(p.generators, _reduce_letters(letters(rng.randint(1, 6)))))
    for _ in range(50):
        # commutators [u, v]: zero exponent sums, so the search must run
        u, v = letters(rng.randint(1, 2)), letters(rng.randint(1, 2))
        inv = [(g, -s) for g, s in reversed(u + v)]
        words.append(Word(p.generators, _reduce_letters(u + v + inv[len(v):] + inv[:len(v)])))
    words += [parse_word(t, p.generators) for t in ("a b a^-1 b^-1", "a e a^-1 e^-1")]
    for u in words:
        assert dehn.is_trivial(u) is search.is_trivial(u), u
    assert all(dehn.is_trivial(u) is OracleVerdict.TRIVIAL for u in words[:40])


@pytest.mark.slow
def test_surface_psi_to_10():
    s, oracle = load_example("surface2")
    assert psi_table(s, oracle, 10).values == [0] * 8 + [1, 1, 1]
