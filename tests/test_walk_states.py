"""Walks carry the oracle's element state (`WordOracle.start`/`step`).

Outputs are pinned to values computed before the walks carried states
(the bounded-bfs grid row, and the words the surface2 walks ask bounded-bfs
about, to values computed while walks still carried their vertex words);
walk counts, and that word list, to values taken once the walk search cut
the prefixes that are no prenecklace, each at most the value before; the
exact walk searches make no oracle calls; oracles that define only
`is_trivial`, or `normalize`, work through the default state; the closing
cut prunes as pinned.  The spellings chosen without normal
forms are pinned too, on disk fillings and on surface2 2-chains.
"""

import contextlib
import gc
import hashlib
import io
import json
import weakref
from collections import Counter

import pytest

from chainprofile.cli import main
from chainprofile.enumeration import (
    _closed_walks,
    _symmetries,
    connected_chains_up_to_action,
    connected_cycles_up_to_action,
    cycle_orbits,
)
from chainprofile.errors import BudgetExceededError
from chainprofile.inputs import load_example, load_input
from chainprofile.profiles import psi_table
from chainprofile.skeleton import _NORMAL_FORMS, presentation_complex
from chainprofile.words import (
    BoundedBFSOracle,
    FiniteTableOracle,
    FreeAbelianOracle,
    OracleVerdict,
    WordOracle,
    parse_presentation,
    parse_word,
)

from test_enumeration import GENS, z2, zmod2
from test_unique_filling import BS13Oracle

EXTRA = {
    "z3": "<a, b, c | a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1>",
    "grid": "<a, b | a b a^-1 b^-1, b a b^-1 a^-1>",
    "grid-bfs": "<a, b | a b a^-1 b^-1, b a b^-1 a^-1>",
}
# the oracle of an extra, when it is not abelian
ORACLES = {"grid-bfs": {"kind": "bounded-bfs", "radius": 12, "sufficient_len": 8}}

# name, n, sha256 of the psi table's JSON, sha256 of `enumerate --cycles
# --list --format json`, and the walks the search expands (the node cap
# that just suffices), with the prenecklace cut
FROZEN = [
    ("z2", 12, "30c2b6c8889df316f8e6106c5d8a0e5627d04f2dd3de6e2d5c41626e1d59483a",
     "d1af906462afdbdc3ad56b90cba376d75684e198003b798fc0e3c2982446daeb", 1519),
    ("f2", 10, "09f90a10f30794934981b9ebed622ccdefad3ee841304f5a24b7c60ec5e94a72",
     "baade25ebdbf33a8f63a303332eb27852e17e2259a8d9538e12a5276d45a94e4", 59),
    ("surface2", 8, "d969937ec7f1013d4c7f1103d3119b9eef79b6c757ef5dc3b8dbf8b5eb34f3d1",
     "644e5890d0d9a11167e568512f569ebfd4a290ff50ea4587a90fad9fa17b3fc0", 9800),
    ("z3", 8, "aaf650516cead18a0c8fd5c97afe6b3c49da88b6462166c83bd450fa91481b82",
     "b08e88e01b12be10abbb8103000ccf546f7704d0f1786f6011b96d7410a87ec5", 234),
    ("z3", 10, "1068769605198b197cfb23f2c736ab59c3fc48fe3622f031990ff35d93e9524b",
     "437eabc73648c6cf22d7721956fd2e4fb545fe2c3138cb9835fb34ecc6d2330e", 2962),
    ("grid", 10, "ad5f3b94d398bd7e593fd912c7f8945c8d46b1612adb93f505358de0fe72b3e2",
     "cd5dda604e63f8494cff0d5510df4f2e7a1957dcb22e9cca7cd72a63034e0e3e", 322),
    ("grid-bfs", 10, "02ea51bab12b603d4421a77893d071201b192703dded71bd3a0766562afafb6a",
     "4b9726a5badef15899ebe3b43cdfee61221e8b4004202799932f3fe291ed6919", 322),
]
# the walk column before the prenecklace cut, row by row
FROZEN_WALKS_BEFORE = [1907, 64, 10559, 237, 3084, 364, 364]

# sha256 of `fv --format json` on the boundaries of seeded disks, whose
# fillings spell their cells as chosen without normal forms: the least
# freely reduced spelling, in shortlex order, among all of a chain's raw
# cells of that element.  Four surface2 disks of 2, 3, 3 and 3 octagons,
# and two grid squares of 4 and 5 cells filled by the search under bounded-bfs
DISKS = [
    ("surface2", "(1, e_a) + (a, e_b) - (a b a^-1, e_a) - (a b a^-1 b^-1, e_b) "
     "+ (a b a^-1 b^-1, e_c) - (d, e_c) - (1, e_d) + (d c d^-1, e_a) + (d c d^-1 a, e_b) "
     "- (d c d^-1 a b a^-1, e_a) - (d c c d^-1 c^-1, e_b) + (d c c d^-1 c^-1, e_c) "
     "+ (d c c d^-1, e_d) - (d c, e_c)",
     "4d0f6f819e6399d8bc97663905689043d3d0069acce3e9385879738fcd579f27"),
    ("surface2", "(a, e_b) - (a b a^-1, e_a) - (a b a^-1 b^-1, e_b) + (a b a^-1 b^-1, e_c) "
     "+ (d c d^-1, e_d) - (1, e_d) + (a b^-1 a^-1, e_a) + (a b^-1, e_b) - (b^-1, e_b) "
     "+ (b^-1, e_c) + (b^-1 c, e_d) - (b^-1 c d c^-1, e_c) - (a b^-1 a^-1, e_d) "
     "+ (d b a b^-1 a^-1, e_a) + (d b a b^-1, e_b) - (d b, e_a) - (d, e_b) + (d c, e_d) "
     "- (d c d c^-1, e_c) - (d c d c^-1 d^-1, e_d)",
     "ba5a666f9fa674efc705163dd666f5178d787ab46e1a1cfba7c7f13d3dffc3d0"),
    ("surface2", "(1, e_a) - (a b a^-1, e_a) - (a b a^-1 b^-1, e_b) + (a b a^-1 b^-1, e_c) "
     "+ (d c d^-1, e_d) - (d, e_c) - (1, e_d) + (a b a b^-1 a^-1, e_a) + (a b a b^-1, e_b) "
     "- (a b, e_a) + (a, e_c) + (a c, e_d) - (a c d c^-1, e_c) "
     "+ (a c d c^-1 c^-1 d^-1, e_a) + (a c d c^-1 c^-1 d^-1 a, e_b) "
     "- (a c d c^-1 d^-1 c^-1 b, e_a) - (a c d c^-1 d^-1 c^-1, e_b) "
     "+ (a c d c^-1 d^-1 c^-1, e_c) - (a c d c^-1 c^-1, e_c) - (a c d c^-1 c^-1 d^-1, e_d)",
     "839fc792fa3b55d49f919655b93f1f2b996ee7d2057f31291be1ea9a91dedb1e"),
    ("surface2", "(1, e_a) + (a, e_b) - (a b a^-1, e_a) + (a b a^-1 b^-1, e_c) "
     "+ (d c d^-1, e_d) - (d, e_c) - (1, e_d) + (a b a^-1 b^-1 a^-1, e_a) "
     "- (a b a^-1 a^-1, e_a) - (a b a^-1 a^-1 b^-1, e_b) + (a b a^-1 a^-1 b^-1, e_c) "
     "- (a b a^-1 b^-1 a^-1 d, e_c) - (a b a^-1 b^-1 a^-1, e_d) "
     "+ (a b a^-1 a^-1 b^-1 c, e_a) + (a b a^-1 a^-1 b^-1 c a, e_b) "
     "- (a b a^-1 a^-1 b^-1 c a b a^-1, e_a) - (a b a^-1 a^-1 b^-1 c a b a^-1 b^-1, e_b) "
     "+ (a b a^-1 a^-1 b^-1 c a b a^-1 b^-1, e_c) + (a b a^-1 a^-1 b^-1 c d c d^-1, e_d) "
     "- (a b a^-1 a^-1 b^-1 c d, e_c)",
     "c78966cc1e12df191baca47873a802efd2691013141d2986d15c53ba965303a8"),
    ("grid-bfs", "(b^-2, e_a) - (b, e_a) + (a, e_a) - (a b, e_a) - (b^-2, e_b) - (b^-1, e_b) "
     "- (1, e_b) + (a b^-2, e_b) + (a b^-1, e_b) + (a^2, e_b)",
     "e4eb12ae7874e13404ec29acba41dc3a3d7eefdce1b697ad1c4567c711a82451"),
    ("grid-bfs", "(a^-1, e_a) - (a^-1 b, e_a) + (1, e_a) - (b, e_a) + (a b^-1, e_a) "
     "- (a b, e_a) + (a^2, e_a) - (a^2 b, e_a) - (a^-1, e_b) - (a b^-1, e_b) "
     "+ (a^2 b^-1, e_b) + (a^3, e_b)",
     "c4debdf1512a269d43e8120b3dad88786cd1bbeb6454f2dbe032acb38ed28f07"),
]

# sha256 of surface2 `enumerate --chain-dim 2 --max-norm 3 --list --format json`
SURFACE2_CHAINS_SHA = "a89dc2c24b38622f8df54902be06e1fb250165e239bb949d64371c65fa4085c8"


def _source(name, tmp_path):
    """A bundled name, or an input file written for an extra."""
    if name not in EXTRA:
        return name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dim": 2, "presentation": EXTRA[name],
                                "oracle": ORACLES.get(name, {"kind": "abelian"})}))
    return str(path)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name, n, psi_sha, enum_sha, walks", FROZEN,
                         ids=[f"{c[0]}-{c[1]}" for c in FROZEN])
def test_outputs_and_walk_counts_are_frozen(name, n, psi_sha, enum_sha, walks, tmp_path):
    src = _source(name, tmp_path)
    s, oracle = load_input(src) if name in EXTRA else load_example(src)
    table = psi_table(s, oracle, n)
    assert _sha(json.dumps(table.to_json_dict(), sort_keys=True)) == psi_sha
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["enumerate", "--input", src, "--chain-dim", "1", "--max-norm", str(n),
                     "--cycles", "--list", "--format", "json", "--no-cache",
                     "--node-cap", str(walks)])
    assert code == 0
    assert _sha(out.getvalue()) == enum_sha
    with pytest.raises(BudgetExceededError, match=f"more than {walks - 1} walks"):
        cycle_orbits(s, oracle, 1, n, node_cap=walks - 1)


def _cli_sha(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json", "--no-cache"])
    assert code == 0
    return _sha(out.getvalue())


@pytest.mark.parametrize("name, literal, sha", DISKS,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(DISKS)])
def test_disk_fillings_keep_their_spellings(name, literal, sha, tmp_path):
    assert _cli_sha(["fv", "--input", _source(name, tmp_path), "--chain", literal]) == sha


def test_surface2_chain_spellings_are_frozen():
    assert _cli_sha(["enumerate", "--input", "surface2", "--chain-dim", "2",
                     "--max-norm", "3", "--list"]) == SURFACE2_CHAINS_SHA


@pytest.mark.parametrize("case, max_norm", [("z2", 8), ("f2", 8), ("zmod2", 6)])
def test_exact_walk_searches_make_no_oracle_calls(case, max_norm, monkeypatch):
    s, oracle = zmod2() if case == "zmod2" else load_example(case)
    calls = Counter()
    for name in ("is_trivial", "normalize"):
        def counted(self, w, method=getattr(type(oracle), name), name=name):
            calls[name] += 1
            return method(self, w)
        monkeypatch.setattr(type(oracle), name, counted)
    walks = _closed_walks(s, oracle, max_norm)
    assert any(walks.values()) or case == "f2"
    assert not calls


def test_surface2_walk_queries_are_pinned(monkeypatch):
    # without normal forms an equal key goes to is_trivial.  Before the
    # prenecklace cut the walks asked 9,750 words (sha256 7bb6e021...), those
    # asked when walks carried their vertex words; the 8,466 asked now are
    # a subsequence of them
    s, oracle = load_example("surface2")
    asked = []
    is_trivial = BoundedBFSOracle.is_trivial

    def recorded(self, w):
        asked.append(w.letters)
        return is_trivial(self, w)
    monkeypatch.setattr(BoundedBFSOracle, "is_trivial", recorded)
    _closed_walks(s, oracle, 8)
    assert len(asked) == 8466
    assert _sha(repr(asked)) == "09c2be624de4c53f1ff99e91fe51e688b12e27a8a371c536e721e7f788d4ff31"


class BS13Default(BS13Oracle):
    """BS(1, 3) through the default state, the letters of its normal form."""

    start, step = WordOracle.start, WordOracle.step


def test_bs13_keeps_working_through_the_default_state():
    p = parse_presentation("<a, b | b a b^-1 a^-3>")
    for cls in (BS13Oracle, BS13Default):
        table = psi_table(presentation_complex(p), cls(p), 8)
        assert table.values == [0, 0, 0, 0, 0, 0, 1, 1, 2]  # computed before states


class KeyedAbelian(WordOracle):
    """The abelian word problem through `is_trivial` alone, without normal
    forms.  Keyed, it keeps its own state, the exponent vector, a sound
    key; otherwise the default state, the one key ()."""

    kind = "keyed"

    def __init__(self, presentation, keyed):
        super().__init__(presentation)
        self.inner, self.keyed = FreeAbelianOracle(presentation), keyed

    def is_trivial(self, w):
        return self.inner.is_trivial(w)

    def start(self):
        return self.inner.start() if self.keyed else super().start()

    def step(self, state, w):
        return self.inner.step(state, w) if self.keyed else super().step(state, w)


class NormalAbelian(KeyedAbelian):
    """With normal forms: unkeyed, the default state is their letters."""

    has_normal_forms = True

    def normalize(self, w):
        return self.inner.normalize(w)


@pytest.mark.parametrize("cls, keyed", [(KeyedAbelian, True), (KeyedAbelian, False),
                                        (NormalAbelian, True), (NormalAbelian, False)])
def test_default_state_matches_the_exact_walks(cls, keyed):
    s, oracle = z2()
    assert _closed_walks(s, cls(s.presentation, keyed), 8) == _closed_walks(s, oracle, 8)


def test_finite_quotient_closes_walks_the_exponent_vector_does_not():
    # in Z/3 the walk a a a closes with exponent vector (3): the l1 closing
    # cut, valid in the free group <a |>, must not apply to the table
    p = parse_presentation("<a | >")
    oracle = FiniteTableOracle(p, ["0", "1", "2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                               {"a": 1})
    s = presentation_complex(p)
    three = connected_cycles_up_to_action(s, oracle, 1, 3)
    assert {n: len(v) for n, v in three.items()} == {1: 0, 2: 0, 3: 2}
    assert connected_cycles_up_to_action(s, oracle, 1, 4)[3] == three[3]


def test_normal_forms_are_memoized_per_oracle(monkeypatch):
    s, oracle = load_input({"dim": 2, "presentation": EXTRA["z3"],
                            "oracle": {"kind": "abelian"}})
    seen = Counter()
    normalize = FreeAbelianOracle.normalize

    def counted(self, w):
        seen[w.letters] += 1
        return normalize(self, w)
    monkeypatch.setattr(FreeAbelianOracle, "normalize", counted)
    for _ in range(2):
        assert psi_table(s, oracle, 6).values == [0, 0, 0, 0, 1, 1, 3]
        assert len(connected_chains_up_to_action(s, oracle, 2, 3)[3]) == 292
        assert max(seen.values()) == 1  # each spelling once: 613 calls before
    assert oracle in _NORMAL_FORMS
    ref = weakref.ref(oracle)
    del oracle
    gc.collect()
    assert ref() is None  # the memo does not keep its oracle alive


@pytest.mark.parametrize("keyed", [True, False])
def test_default_states_compare_by_element(keyed):
    s, _ = z2()
    oracle = NormalAbelian(s.presentation, keyed)
    ab = oracle.step(oracle.start(), parse_word("a b", GENS))
    ba = oracle.step(oracle.start(), parse_word("b a", GENS))
    assert ab == ba and hash(ab) == hash(ba)
    assert oracle.step(ab, parse_word("a", GENS)) != oracle.step(ba, parse_word("a^-1", GENS))
    assert oracle.is_trivial(parse_word("a b a^-1 b^-1", GENS)) is OracleVerdict.TRIVIAL
    assert oracle.is_trivial(parse_word("a b a^-1", GENS)) is OracleVerdict.NONTRIVIAL
    assert KeyedAbelian(s.presentation, False).step((), parse_word("a", GENS)) == ()


def _walk_input(name):
    if name == "zmod2":
        return zmod2()
    if name in EXTRA:
        return load_input({"dim": 2, "presentation": EXTRA[name],
                           "oracle": ORACLES.get(name, {"kind": "abelian"})})
    return load_example(name)


# the least node cap each walk search passes, with the prenecklace cut, and
# before it, taken while the closing cuts still tested the oracle's kind
# (the l1 norm of the exponent vector, and the reduced length for the free
# oracle)
LEAST_CAPS = [("z2", 10, 322, 364), ("f2", 10, 59, 64), ("surface2", 6, 352, 358),
              ("z3", 6, 25, 25), ("grid-bfs", 8, 71, 74), ("zmod2", 6, 2, 2)]


def test_prenecklace_cut_raises_no_pin():
    # the cut only drops walks, so no pinned count grew when it came in
    assert all(c[4] <= before for c, before in zip(FROZEN, FROZEN_WALKS_BEFORE))
    assert all(cap <= before for _, _, cap, before in LEAST_CAPS)


@pytest.mark.parametrize("name, n, cap, _before", LEAST_CAPS, ids=[c[0] for c in LEAST_CAPS])
def test_word_norm_cut_prunes_as_the_kind_cuts_did(name, n, cap, _before):
    s, oracle = _walk_input(name)
    _closed_walks(s, oracle, n, node_cap=cap)
    with pytest.raises(BudgetExceededError, match=f"more than {cap - 1} walks"):
        _closed_walks(s, oracle, n, node_cap=cap - 1)


def test_three_commutators_keep_the_symmetries():
    s, oracle = _walk_input("z3")
    assert oracle.presents_group and len(_symmetries(s, oracle)) == 48
