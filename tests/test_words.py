"""Word algebra, presentations, and word-problem oracles."""

import ast
import hashlib
import itertools
import pathlib
import random

import pytest

import word_reference

import chainprofile
from chainprofile.errors import InputError, OracleUndecidedError, ParseError
from chainprofile.words import (
    BoundedBFSOracle,
    FiniteTableOracle,
    FreeAbelianOracle,
    FreeOracle,
    IntegerLattice,
    OracleVerdict,
    Word,
    _reduce_letters,
    compose,
    exponent_vector,
    format_word,
    free_reduce,
    invert,
    is_trivial,
    make_presentation,
    oracle_from_config,
    parse_presentation,
    parse_word,
    relator_forms,
    same_element,
    small_cancellation_c6,
    word_key,
    words_equal,
)

AB = ("a", "b")


def w(text, gens=AB):
    return parse_word(text, gens)


# ------------------------------------------------------------------- parsing

def test_parse_spaced_and_juxtaposed_agree():
    assert w("a b a^-1 b^-1") == w("aba^-1b^-1")
    assert w("a b a^-1 b^-1").letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_powers():
    assert w("a^2").letters == ((0, 1), (0, 1))
    assert w("a^-3").letters == ((0, -1), (0, -1), (0, -1))
    assert w("a^0").letters == ()
    assert w("b a^2 b^-1").letters == ((1, 1), (0, 1), (0, 1), (1, -1))


def test_parse_identity_token():
    assert w("1").letters == ()
    assert w("  1  ").letters == ()


def test_parse_reduces():
    assert w("a a^-1").letters == ()
    assert w("a b b^-1 a").letters == ((0, 1), (0, 1))


def test_parse_longest_generator_name_wins():
    gens = ("ab", "a", "b")
    parsed = parse_word("aba", gens)
    assert parsed.letters == ((0, 1), (1, 1))


def test_parse_errors():
    with pytest.raises(ParseError):
        w("c")
    with pytest.raises(ParseError):
        w("^2")
    with pytest.raises(ParseError):
        w("(a b)^2")


@pytest.mark.parametrize("text, message", [
    ("c", "unknown generator in 'c'"),
    ("a1", "unknown generator in 'a1'"),
    ("^2", "power with nothing to apply it to in '^2'"),
    ("1^2", "power with nothing to apply it to in '1^2'"),
    ("2a", "unexpected token '2' in word '2a'"),
    ("a \u00e9", "unexpected token '\u00e9' in word 'a \u00e9'"),
    # a caret without an exponent is a token of its own, not a bad power
    ("a ^ b", "unexpected token '^' in word 'a ^ b'"),
    ("a^", "unexpected token '^' in word 'a^'")])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        w(text)
    assert str(exc.value) == message


def test_parse_keeps_every_token_kind():
    assert w("a^2 1 b^-1 ab a ^ 3").letters == (
        (0, 1), (0, 1), (1, -1), (0, 1), (1, 1), (0, 1), (0, 1), (0, 1))


def test_format_word():
    assert format_word(w("a a b^-1")) == "a^2 b^-1"
    assert format_word(w("1")) == "1"
    assert format_word(w("a b a")) == "a b a"


def test_format_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        letters = [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(9))]
        word = free_reduce(Word(AB, tuple(letters)))
        assert parse_word(format_word(word), AB) == word


# alphabets with prefixes of each other, digits in names, and names the
# tokenizer cannot read as one identifier (and a repeated name)
ALPHABETS = [("a", "b"), ("ab", "a", "b"), ("x10", "x1", "y"), ("a", "b'", "\u00e9", "a")]
# detached and signed powers, the identity, ASCII and Arabic-Indic digits,
# unknown names and stray characters
PIECES = ["a", "b", "ab", "x1", "x10", "y", "c", "_", "1", "0", "10", "^", "^2", "^-1",
          "^0", "^-0", "^007", "^+2", "^\u0663", "^-\u00b2", "^ 2", "^-", "-", "(", ")",
          "*", ",", "'", "b'", "\u00e9", "\u00b2", "\u0663"]
SEPARATORS = ["", "", " ", " ", "  ", "\t", "\n", "\u3000", "\x1c"]


def _random_letters(rng, gens, maxlen):
    """Letters that repeat often, reduced or not."""
    return tuple((rng.randrange(len(gens)), rng.choice((1, -1)))
                 for _ in range(rng.randrange(maxlen)))


def _random_text(rng, gens):
    """A printed word, a printed word with a piece spliced in, or pieces."""
    kind = rng.randrange(3)
    if kind < 2:
        text = word_reference.format_word(Word(gens, _random_letters(rng, gens, 9)))
        if kind == 0:
            return text
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(SEPARATORS) + rng.choice(PIECES) + text[at:]
    parts = [rng.choice(PIECES) for _ in range(rng.randrange(1, 6))]
    return "".join(p + rng.choice(SEPARATORS) for p in parts)


def _read(parse, text, gens):
    try:
        return parse(text, gens)
    except ParseError as e:
        return f"ParseError: {e}"


def test_parse_word_reads_every_text_as_the_tokenizer_does():
    # text as format_word prints it is read from the alphabet's table, the
    # rest by the tokenizer; either way the word or the message is the same
    rng = random.Random(34)
    for gens in ALPHABETS:
        for _ in range(3000):
            text = _random_text(rng, gens)
            assert _read(parse_word, text, gens) == _read(word_reference.parse_word, text, gens), \
                (text, gens)
    for text in ("1", "a^0", "a^-0", "a^007", "a^+2", "a^\u0663", "a^\u00b2", "a ^2", "aba^-1",
                 "a^2^3", "1^2", "a^-1b", "b^-1 a^-1", " a\u3000b ", "a\x1cb"):
        assert _read(parse_word, text, AB) == _read(word_reference.parse_word, text, AB), text


@pytest.mark.parametrize("text", [5, None, ["a"], ("a",), b"a", b"a b^-1"])
def test_a_word_that_is_not_a_string_raises_the_tokenizer_s_type_error(text):
    # the callers that read stored and input words turn TypeError into
    # their own refusals, so no other exception may leave parse_word
    with pytest.raises(TypeError) as expected:
        word_reference.parse_word(text, AB)
    with pytest.raises(TypeError) as got:
        parse_word(text, AB)
    assert str(got.value) == str(expected.value)


def test_format_word_and_word_key_match_the_reference():
    rng = random.Random(35)
    for gens in ALPHABETS:
        for _ in range(2000):
            word = Word(gens, _random_letters(rng, gens, 12))
            assert format_word(word) == word_reference.format_word(word)
            assert word_key(word) == word_reference.word_key(word)
            assert hash(word_key(word)) == hash(word_reference.word_key(word))


# ----------------------------------------------------------------- word ops

def test_compose_cancels_at_junction():
    assert compose(w("a b"), w("b^-1 a")).letters == ((0, 1), (0, 1))
    assert compose(w("a"), w("a^-1")).letters == ()


def test_invert():
    assert invert(w("a b^-1")) == w("b a^-1")
    assert compose(w("a b a"), invert(w("a b a"))).letters == ()


def _reduced_words(gens, maxlen):
    """Every freely reduced word over gens of length at most maxlen."""
    letters = [(g, s) for g in range(len(gens)) for s in (1, -1)]
    out = level = [()]
    for _ in range(maxlen):
        level = [u + (x,) for u in level for x in letters
                 if not u or u[-1] != (x[0], -x[1])]
        out = out + level
    return [Word(gens, u) for u in out]


def test_kernel_on_all_short_reduced_words():
    words = _reduced_words(AB, 4)
    assert len(words) == 161
    empty = Word(AB, ())
    for u in words:
        assert invert(invert(u)) == u
        assert compose(u, invert(u)) == empty
        for v in words:
            assert compose(u, v).letters == _reduce_letters(u.letters + v.letters)


def test_compose_rejects_mixed_alphabets():
    from chainprofile.errors import AlphabetError
    with pytest.raises(AlphabetError):
        compose(w("a"), parse_word("c", ("c",)))


def test_word_key_is_shortlex():
    ws = [w(t) for t in ("1", "a", "a^-1", "b", "a^2", "a b")]
    assert sorted(ws, key=word_key) == [w("1"), w("a"), w("a^-1"), w("b"), w("a^2"), w("a b")]


def test_exponent_vector():
    assert exponent_vector(w("a b a^-1 b^-1")) == (0, 0)
    assert exponent_vector(w("a^2 b^-1")) == (2, -1)


# ------------------------------------------------------------- presentations

def test_parse_presentation():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    assert p.generators == ("a", "b")
    assert [format_word(r) for r in p.relators] == ["a b a^-1 b^-1"]
    assert str(p) == "<a, b | a b a^-1 b^-1>"


def test_parse_presentation_no_relators():
    p = parse_presentation("<a, b>")
    assert p.relators == ()
    assert parse_presentation("<a, b |>").relators == ()


def test_presentation_errors():
    with pytest.raises(ParseError):
        parse_presentation("a, b | a^2")
    with pytest.raises(ParseError):
        parse_presentation("<>")
    with pytest.raises(InputError):
        make_presentation(["a", "a"], [])
    with pytest.raises(InputError):
        make_presentation(["a"], ["a a^-1"])


# ------------------------------------------------------------------- oracles

def test_free_oracle():
    p = parse_presentation("<a, b>")
    o = FreeOracle(p)
    assert is_trivial(o, w("a a^-1")) is OracleVerdict.TRIVIAL
    assert is_trivial(o, w("a b a^-1")) is OracleVerdict.NONTRIVIAL
    assert words_equal(o, w("a b b^-1"), w("a")) is OracleVerdict.TRIVIAL


def test_abelian_oracle():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    o = FreeAbelianOracle(p)
    assert is_trivial(o, w("a b a^-1 b^-1")) is OracleVerdict.TRIVIAL
    assert is_trivial(o, w("a b a^-1")) is OracleVerdict.NONTRIVIAL
    assert o.normalize(w("b a")) == w("a b")
    assert o.normalize(w("b a^-1 b")) == w("a^-1 b^2")
    assert words_equal(o, w("a b"), w("b a")) is OracleVerdict.TRIVIAL


def test_finite_table_oracle_cyclic3():
    p = parse_presentation("<a | a^3>")
    o = FiniteTableOracle(p, ["e", "a", "aa"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], {"a": 1})
    assert o.evaluate(w("a^2", ("a",))) == 2
    assert o.evaluate(w("a^-1", ("a",))) == 2
    assert is_trivial(o, w("a^3", ("a",))) is OracleVerdict.TRIVIAL
    assert is_trivial(o, w("a", ("a",))) is OracleVerdict.NONTRIVIAL
    assert o.normalize(w("a^2", ("a",))) == w("a^-1", ("a",))
    assert format_word(o.element_word(2)) == "a^-1"


@pytest.mark.parametrize("elements, name", [
    (["e", "a", "aa"], "finite-table:5d10b2e36e58"),
    ([f"a{i}" for i in range(60)], "finite-table:4137da1d5f51")], ids=["Z3", "Z60"])
def test_a_finite_table_is_named_once_and_as_before(monkeypatch, elements, name):
    # the name goes into every fingerprint; its hash reads the whole table
    n = len(elements)
    o = FiniteTableOracle(parse_presentation(f"<a | a^{n}>"), elements,
                          [[(i + j) % n for j in range(n)] for i in range(n)], {"a": 1})
    hashes = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashes.append(data) or real(data))
    assert [o.name, o.name] == [name, name]
    assert len(hashes) == 1


def test_finite_table_validation():
    p = parse_presentation("<a | a^2>")
    with pytest.raises(InputError):
        FiniteTableOracle(p, ["e", "a"], [[0, 0], [1, 1]], {"a": 1})
    with pytest.raises(InputError):
        FiniteTableOracle(p, ["e", "a"], [[1, 0], [0, 1]], {"a": 1})
    with pytest.raises(InputError):
        FiniteTableOracle(p, ["e", "a"], [[0, 1], [1, 0]], {})
    p3 = parse_presentation("<a | a^3>")
    with pytest.raises(InputError):
        # table satisfies a^2 = 1, not a^3 = 1
        FiniteTableOracle(p3, ["e", "a"], [[0, 1], [1, 0]], {"a": 1})
    with pytest.raises(InputError):
        # generator mapped to the identity generates nothing
        FiniteTableOracle(parse_presentation("<a | a>"), ["e", "x"],
                          [[0, 1], [1, 0]], {"a": 0})


def test_finite_table_rejects_non_associative_loop():
    # a loop of order 5 with identity 0 and every element its own inverse;
    # it satisfies a^2 = b^2 = 1, but (a b) b is element 4, not a
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    p = parse_presentation("<a, b | a^2, b^2>")
    with pytest.raises(InputError, match="not associative"):
        FiniteTableOracle(p, list("01234"), loop, {"a": 1, "b": 2})


def test_bounded_bfs_commutator_examples():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    o = BoundedBFSOracle(p, radius=12, sufficient_len=8)
    assert is_trivial(o, w("a b a^-1 b^-1")) is OracleVerdict.TRIVIAL
    assert is_trivial(o, w("a^2 b a^-2 b^-1")) is OracleVerdict.TRIVIAL
    assert is_trivial(o, w("a")) is OracleVerdict.NONTRIVIAL
    assert is_trivial(o, w("1")) is OracleVerdict.TRIVIAL


def test_bounded_bfs_radius_zero_is_undecided():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    o = BoundedBFSOracle(p, radius=0, sufficient_len="all")
    assert is_trivial(o, w("a b a^-1 b^-1")) is OracleVerdict.UNDECIDED
    # abelianization certificate still fires below the radius
    assert is_trivial(o, w("a b")) is OracleVerdict.NONTRIVIAL


def test_same_element_raises_on_undecided():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    o = BoundedBFSOracle(p, radius=0, sufficient_len="all")
    assert same_element(o, w("a"), w("a"))
    assert not same_element(o, w("a"), w("b"))
    with pytest.raises(OracleUndecidedError):
        same_element(o, w("a b"), w("b a"))


def test_bounded_bfs_default_gate():
    # the default radius max(2 len, 2 maxrel) meets the default "auto" gate,
    # so exhausting the component proves Nontrivial (infinite dihedral group)
    o = BoundedBFSOracle(parse_presentation("<a, b | a^2, b^2>"))
    assert is_trivial(o, w("a b a b")) is OracleVerdict.NONTRIVIAL
    assert is_trivial(o, w("a b a^-1 b^-1")) is OracleVerdict.NONTRIVIAL
    assert is_trivial(o, w("a b b a^-1")) is OracleVerdict.TRIVIAL


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 17: the default \"auto\" gate turns an exhausted "
                   "search into Nontrivial without a certificate")
def test_bounded_bfs_never_calls_a_trivial_word_nontrivial():
    # x5 = x0^32 commutes with b, but the search exhausts the component of
    # x5 b x5^-1 b^-1 within the radius max(2|w|, 2 maxrel) = 8 that the
    # default gate trusts, without reaching the empty word
    chain = ", ".join(f"x{i}^2 x{i + 1}^-1" for i in range(5))
    p = parse_presentation(f"<x0, x1, x2, x3, x4, x5, b | {chain}, x0 b x0^-1 b^-1>")
    word = parse_word("x5 b x5^-1 b^-1", p.generators)
    assert is_trivial(BoundedBFSOracle(p), word) is not OracleVerdict.NONTRIVIAL


def _row_lattice_box(rows, width, bound):
    """Row lattice points of sup norm at most bound, by breadth-first steps
    of +-row inside a box widened by the sum of the rows' sup norms: a
    combination of the rows taken in proportional turns stays that close to
    the segment from 0 to its sum, so every point in range is reached."""
    edge = bound + sum(max(map(abs, r)) for r in rows)
    steps = [tuple(s * x for x in r) for r in rows for s in (1, -1)]
    seen = {(0,) * width}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for d in steps:
                q = tuple(x + y for x, y in zip(p, d))
                if q not in seen and max(map(abs, q)) <= edge:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return {p for p in seen if max(map(abs, p)) <= bound}


def test_lattice_residue_decides_cosets():
    # equal residues hold exactly when the difference lies in the row lattice
    rng = random.Random(5)
    for case in range(120):
        width = 2 if case < 90 else 3
        rows = [[rng.randint(-3, 3) for _ in range(width)]
                for _ in range(rng.randint(1, 3))]
        lattice = IntegerLattice(rows, width)
        members = _row_lattice_box(rows, width, 4)
        for d in itertools.product(range(-4, 5), repeat=width):
            u = [rng.randint(-6, 6) for _ in range(width)]
            same = lattice.residue(u) == lattice.residue([a + b for a, b in zip(u, d)])
            assert same is (d in members), (rows, u, d)


def test_lattice_merges_pivots():
    # rows (2, 4) and (4, 2) share pivot column 0, which the gcd step merges
    # into the echelon basis (2, 4), (0, 6): the quotient has order 12
    lattice = IntegerLattice([(2, 4), (4, 2)], 2)
    assert lattice.pivots == {0: [2, 4], 1: [0, 6]}
    residues = {lattice.residue((x, y)) for x in range(12) for y in range(12)}
    assert len(residues) == 12
    assert not any(lattice.residue((6, 0))) and any(lattice.residue((3, 0)))
    o = BoundedBFSOracle(parse_presentation("<a, b | a^2 b^4, a^4 b^2>"))
    assert is_trivial(o, w("a^3")) is OracleVerdict.NONTRIVIAL


def test_bounded_bfs_integer_gate():
    # Z/2 * Z is not C'(1/6) and the commutator abelianizes to 0, so only the
    # exhausted search decides it: Nontrivial while its length 4 is within
    # sufficient_len, Undecided past it
    p = parse_presentation("<a, b | a^2>")
    word = w("b a b^-1 a^-1")
    assert not small_cancellation_c6(p.relators)
    assert is_trivial(BoundedBFSOracle(p, sufficient_len=8), word) is OracleVerdict.NONTRIVIAL
    assert is_trivial(BoundedBFSOracle(p, sufficient_len=2), word) is OracleVerdict.UNDECIDED


def test_bounded_bfs_matches_abelian_on_random_words():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    bfs = BoundedBFSOracle(p, radius=12, sufficient_len=8)
    ab = FreeAbelianOracle(p)
    rng = random.Random(11)
    for _ in range(300):
        letters = [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(9))]
        word = free_reduce(Word(AB, tuple(letters)))
        assert is_trivial(bfs, word) is is_trivial(ab, word)


def test_bounded_bfs_verdicts_only_sharpen_with_radius():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    rng = random.Random(13)
    words = []
    for _ in range(120):
        letters = [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(9))]
        words.append(free_reduce(Word(AB, tuple(letters))))
    previous = None
    for radius in (0, 4, 8, 12):
        o = BoundedBFSOracle(p, radius=radius, sufficient_len=8)
        current = [is_trivial(o, word) for word in words]
        if previous is not None:
            for before, after in zip(previous, current):
                if before is not OracleVerdict.UNDECIDED:
                    assert after is before
        previous = current


def test_bounded_bfs_surface_relator():
    p = parse_presentation("<a, b, c, d | a b a^-1 b^-1 c d c^-1 d^-1>")
    o = BoundedBFSOracle(p, policy="length", sufficient_len="all", node_cap=200000)
    r = parse_word("a b a^-1 b^-1 c d c^-1 d^-1", p.generators)
    assert is_trivial(o, r) is OracleVerdict.TRIVIAL
    assert is_trivial(o, parse_word("a b a^-1 b^-1", p.generators)) is OracleVerdict.NONTRIVIAL
    assert is_trivial(o, parse_word("a", p.generators)) is OracleVerdict.NONTRIVIAL


def test_oracle_from_config():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    assert oracle_from_config(p, {"kind": "abelian"}).kind == "abelian"
    o = oracle_from_config(p, {"kind": "bounded-bfs", "radius": 6})
    assert o.radius == 6
    with pytest.raises(InputError):
        oracle_from_config(p, {"kind": "nope"})
    with pytest.raises(InputError):
        oracle_from_config(p, {"kind": "bounded-bfs", "depth": 3})


@pytest.mark.parametrize("option, value", [
    ("sufficient_len", "abc"), ("sufficient_len", -1), ("sufficient_len", True),
    ("sufficient_len", 8.0), ("radius", "x"), ("radius", -1), ("radius", False),
    ("node_cap", -5), ("node_cap", 0), ("node_cap", True), ("node_cap", "100")])
def test_bounded_bfs_config_values_are_checked(option, value):
    p = parse_presentation("<a, b | a^2, b^2>")
    with pytest.raises(InputError, match=option):
        oracle_from_config(p, {"kind": "bounded-bfs", option: value})


def test_bounded_bfs_config_bounds_are_accepted():
    p = parse_presentation("<a, b | a^2, b^2>")
    for option, value in (("radius", None), ("radius", 0), ("sufficient_len", "auto"),
                          ("sufficient_len", "all"), ("sufficient_len", None),
                          ("sufficient_len", 0), ("node_cap", 1)):
        o = oracle_from_config(p, {"kind": "bounded-bfs", option: value})
        # null is the default gate, stored under its one name
        want = "auto" if (option, value) == ("sufficient_len", None) else value
        assert getattr(o, option) == want


def test_null_and_auto_sufficiency_name_one_oracle():
    # one gate, so one name, one fingerprint and one cache entry
    from chainprofile.inputs import load_input
    from chainprofile.skeleton import skeleton_fingerprint

    loaded = [load_input({"dim": 2, "presentation": "<a, b | a b a b>",
                          "oracle": {"kind": "bounded-bfs", "sufficient_len": v}})
              for v in (None, "auto")]
    (s, null), (_, auto) = loaded
    assert null.name == auto.name == BoundedBFSOracle(s.presentation).name
    assert "sufficient=auto" in null.name
    assert len({skeleton_fingerprint(*pair) for pair in loaded}) == 1


def test_oracle_names_distinguish_configs():
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    a = BoundedBFSOracle(p, radius=6)
    b = BoundedBFSOracle(p, radius=8)
    assert a.name != b.name
    assert FreeAbelianOracle(p).name != FreeOracle(parse_presentation("<a, b>")).name


# --------------------------------------------------- the reduced-word contract

def _is_reduced(letters):
    return all(x != (y[0], -y[1]) for x, y in zip(letters, letters[1:]))


def _recording_constructor(monkeypatch, module):
    """Record every cell word the module hands to the chain constructor,
    which takes its raw words as freely reduced."""
    seen = []
    real = module._canonical_chain

    def build(dim, terms, oracle):
        terms = list(terms)
        seen.extend(w.letters for _, w, _ in terms)
        return real(dim, terms, oracle)
    monkeypatch.setattr(module, "_canonical_chain", build)
    return seen


def test_word_producers_hand_out_reduced_words(monkeypatch):
    from chainprofile import enumeration, profiles
    from chainprofile.inputs import load_example
    from chainprofile.skeleton import presentation_complex

    for text in ("<a, b | a b a^-1 b^-1>", "<a, b, c, d | a b a^-1 b^-1 c d c^-1 d^-1>",
                 "<a, b | a^2 b^4, a^4 b^2>"):
        p = parse_presentation(text)
        s = presentation_complex(p)
        for dim in (1, 2):
            for base in range(s.n_cells(dim)):
                assert all(_is_reduced(c.word.letters)
                           for c, _ in s.boundary_chain(dim, base).terms)
        for r in p.relators:
            for form, _, offset in relator_forms(r):
                assert _is_reduced(form) and _is_reduced(offset)

    zmod2 = load_example("zmod2")[1]
    klein = FiniteTableOracle(parse_presentation("<a, b | a^2, b^2, a b a^-1 b^-1>"),
                              range(4), [[i ^ j for j in range(4)] for i in range(4)],
                              {"a": 1, "b": 2})
    for o in (zmod2, klein):
        assert all(_is_reduced(o.element_word(i).letters) for i in range(len(o.elements)))

    abelian = FreeAbelianOracle(parse_presentation("<a, b | a b a^-1 b^-1>"))
    for u in _reduced_words(AB, 4):
        assert _is_reduced(abelian.normalize(u).letters)

    walked = _recording_constructor(monkeypatch, enumeration)
    filled = _recording_constructor(monkeypatch, profiles)
    for name, walk_norm, fill_norm in (("z2", 10, 8), ("surface2", 8, 8)):
        s, oracle = load_example(name)
        cycles = enumeration.connected_cycles_up_to_action(s, oracle, 1, walk_norm)
        for n, reps in cycles.items():
            for cyc in reps:
                assert all(_is_reduced(c.word.letters) for c, _ in cyc.terms)
                if n <= fill_norm:
                    walks = profiles._cycle_walks(cyc, s, oracle)
                    x = profiles._rewritten_filling(walks, s, oracle, profiles.Budget())
                    assert all(_is_reduced(c.word.letters) for c, _ in x.terms)
    assert walked and filled
    assert all(map(_is_reduced, walked)) and all(map(_is_reduced, filled))


def _norm_oracles():
    z2 = parse_presentation("<a, b | a b a^-1 b^-1>")
    grid = parse_presentation("<a, b | a b a^-1 b^-1, b a b^-1 a^-1>")
    return [FreeOracle(parse_presentation("<a, b |>")), FreeAbelianOracle(z2),
            BoundedBFSOracle(grid, radius=8, sufficient_len=4),
            BoundedBFSOracle(parse_presentation("<a, b | a^2 b^-3>"))]


@pytest.mark.parametrize("oracle", _norm_oracles(), ids=lambda o: o.name)
def test_word_norm_is_a_length_function(oracle):
    # 0 at the identity, equal on inverses, subadditive
    rng = random.Random(5)
    letters = [(g, e) for g in range(2) for e in (1, -1)]
    e = oracle.start()
    assert oracle.word_norm(e) == 0
    for _ in range(200):
        u, v = (free_reduce(Word(AB, tuple(rng.choice(letters) for _ in range(rng.randrange(7)))))
                for _ in range(2))
        nu, nv = (oracle.word_norm(oracle.step(e, x)) for x in (u, v))
        assert oracle.word_norm(oracle.step(e, invert(u))) == nu
        assert oracle.word_norm(oracle.step(oracle.step(e, u), v)) <= nu + nv


def test_word_norms_and_group_answers_of_the_built_in_oracles():
    z2 = parse_presentation("<a, b | a b a^-1 b^-1>")
    f2 = parse_presentation("<a, b |>")
    bent = parse_presentation("<a, b | a^2 b^-3>")
    table = FiniteTableOracle(parse_presentation("<a | a^2>"), ["e", "a"],
                              [[0, 1], [1, 0]], {"a": 1})
    aab = w("a a b^-1")
    assert FreeOracle(f2).word_norm(FreeOracle(f2).step((), aab)) == 3
    assert FreeAbelianOracle(z2).word_norm((2, -1)) == 3
    assert BoundedBFSOracle(z2).word_norm((2, -1)) == 3
    assert BoundedBFSOracle(bent).word_norm(BoundedBFSOracle(bent).start()) == 0
    assert BoundedBFSOracle(bent).word_norm((1, 0)) == 0  # a relator moves the vector
    assert table.word_norm(1) == 0
    assert FreeOracle(f2).presents_group and not FreeOracle(z2).presents_group
    assert FreeAbelianOracle(z2).presents_group and not FreeAbelianOracle(f2).presents_group
    assert BoundedBFSOracle(bent).presents_group and not table.presents_group


def test_default_is_trivial_compares_states():
    for oracle in (FreeOracle(parse_presentation("<a, b |>")),
                   FreeAbelianOracle(parse_presentation("<a, b | a b a^-1 b^-1>"))):
        assert "is_trivial" not in vars(type(oracle))
        assert oracle.is_trivial(w("a b b^-1 a^-1")) is OracleVerdict.TRIVIAL
        assert oracle.is_trivial(w("a b^-1")) is OracleVerdict.NONTRIVIAL
    assert (FreeOracle(parse_presentation("<a, b |>")).is_trivial(w("a b a^-1 b^-1"))
            is OracleVerdict.NONTRIVIAL)
    assert (FreeAbelianOracle(parse_presentation("<a, b |>")).is_trivial(w("a b a^-1 b^-1"))
            is OracleVerdict.TRIVIAL)


# the one function that needs a finite table itself, not an answer about its
# group: the admission of the profile routes
KIND_READERS = {"_check_route"}


class _OracleReads(ast.NodeVisitor):
    """Where the package reads `oracle.kind` or calls getattr on an oracle."""

    def __init__(self):
        self.where, self.kind, self.getattr = [], set(), []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "oracle" and node.attr == "kind":
            self.kind.add(self.where[-1] if self.where else "<module>")
        self.generic_visit(node)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "getattr" and node.args
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "oracle"):
            self.getattr.append(self.where[-1] if self.where else "<module>")
        self.generic_visit(node)


def test_only_the_oracle_answers_what_its_group_is():
    # callers ask an oracle through its contract (`step`, `word_norm`,
    # `presents_group`), never by its kind, outside the finite-table routes
    reads = _OracleReads()
    for path in sorted(pathlib.Path(chainprofile.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "invariant_key" not in text and "_Spelled" not in text, path.name
        reads.visit(ast.parse(text))
    assert not reads.getattr
    assert reads.kind and reads.kind <= KIND_READERS, sorted(reads.kind - KIND_READERS)
