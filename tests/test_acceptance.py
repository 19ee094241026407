"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time

import window_oracle as win

from chainprofile.enumeration import (
    connected_chains_up_to_action,
    connected_cycles_up_to_action,
)
from chainprofile.inputs import load_example
from chainprofile.profiles import (
    Budget,
    chain2_bound,
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
    chains_equal,
    coboundary,
    components,
    is_connected,
    is_subchain,
    norm,
    translate,
)
from chainprofile.words import (
    BoundedBFSOracle,
    FreeAbelianOracle,
    Word,
    exponent_vector,
    parse_presentation,
    parse_word,
    words_equal,
)


def _random_chain(s, oracle, dim, rng, n_terms=4, word_len=5):
    gens = s.presentation.generators
    terms = []
    for _ in range(rng.randint(1, n_terms)):
        letters = tuple((rng.randrange(len(gens)), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, word_len)))
        base = rng.randrange(s.n_cells(dim))
        terms.append((LiftedCell(dim, base, Word(gens, letters)),
                      rng.choice((-2, -1, 1, 2))))
    return build_chain(dim, terms, oracle)


def _reduced_words(gens, maxlen):
    out = [Word(gens, ())]
    frontier = [()]
    letters = [(i, s) for i in range(len(gens)) for s in (1, -1)]
    for _ in range(maxlen):
        nxt = []
        for tup in frontier:
            for l in letters:
                if tup and tup[-1] == (l[0], -l[1]):
                    continue
                nt = tup + (l,)
                nxt.append(nt)
                out.append(Word(gens, nt))
        frontier = nxt
    return out


def _coeff_of(chain, base, word, oracle):
    for c, n in chain.terms:
        if c.base != base:
            continue
        verdict = words_equal(oracle, c.word, word)
        assert verdict.name != "UNDECIDED"
        if verdict.name == "TRIVIAL":
            return n
    return 0


def test_criterion_1_boundary_squares_to_zero():
    t0 = time.time()
    rng = random.Random(101)
    checked = 0
    for name in ("z2", "zmod2", "surface2"):
        s, oracle = load_example(name)
        for _ in range(200):
            a = _random_chain(s, oracle, 2, rng, word_len=3)
            bb = boundary(boundary(a, s, oracle), s, oracle)
            assert not bb.terms, f"{name}: boundary of boundary nonzero"
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: boundary of boundary vanished on {checked} "
          f"random chains over 3 complexes ({elapsed:.2f}s < 5s)")


def test_criterion_2_free_group_has_flat_profile():
    t0 = time.time()
    s, oracle = load_example("f2")
    cycles = connected_cycles_up_to_action(s, oracle, 1, 10)
    assert all(not v for v in cycles.values())
    psi = psi_table(s, oracle, 10)
    assert psi.values == [0] * 11
    assert phi_table(s, oracle, 10, psi=psi).values == [0] * 11
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: free cover has no connected cycles up to "
          f"norm 10 and zero profiles ({elapsed:.2f}s < 30s)")


def test_criterion_3_grid_profile_matches_independent_model():
    t0 = time.time()
    s, oracle = load_example("z2")
    f = build_chain(2, [(LiftedCell(2, 0, parse_word("1", ("a", "b"))), 1)],
                    oracle)
    square = boundary(f, s, oracle)
    assert filling_volume(square, s, oracle) == 1
    psi = psi_table(s, oracle, 8)
    assert psi.values == [0, 0, 0, 0, 1, 1, 2, 2, 4]
    for n in (4, 6, 8):
        assert psi.values[n] == win.z2_psi(n)
    phi = phi_table(s, oracle, 8)
    assert phi.values == [0, 0, 0, 0, 1, 1, 2, 2, 4]
    assert phi.values[8] == win.partition_max(psi.values, 8)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nPASS criterion 3: grid filling volumes and profiles to size 8 "
          f"match the independent model ({elapsed:.2f}s < 300s)")


def test_criterion_3_slow_grid_profile_depth_12():
    t0 = time.time()
    s, oracle = load_example("z2")
    psi = psi_table(s, oracle, 12)
    assert psi.values == [0, 0, 0, 0, 1, 1, 2, 2, 4, 4, 6, 6, 9]
    phi = phi_table(s, oracle, 12, psi=psi)
    assert phi.values[12] == 9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 3 (depth 12): grid profile to size 12 matches the "
          f"walk-based model ({elapsed:.2f}s < 60s)")


def test_criterion_4_order_two_group_exact_profile():
    t0 = time.time()
    s, oracle = load_example("zmod2")
    table = finite_profile(s, oracle, 6)
    assert table.values == [win.zmod2_profile(n) for n in range(7)]
    assert table.values == [0, 0, 1, 1, 2, 2, 3]
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 4: exact finite profile equals floor(n/2) up to "
          f"6 ({elapsed:.2f}s < 10s)")


def test_criterion_5_decomposition_laws_are_exact():
    t0 = time.time()
    s, oracle = load_example("z2")
    rng = random.Random(55)
    for _ in range(500):
        a = _random_chain(s, oracle, 1, rng, n_terms=5)
        if not a.terms:
            continue
        parts = components(a, s, oracle)
        b = boundary(a, s, oracle)
        assert sum(norm(p) for p in parts) == norm(a)
        assert sum(norm(boundary(p, s, oracle)) for p in parts) == norm(b)
        for p in parts:
            assert is_connected(p, s, oracle)
            assert is_subchain(p, a, oracle)
            assert is_subchain(boundary(p, s, oracle), b, oracle)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 5: norm and boundary-norm split exactly across "
          f"components on 500 random chains ({elapsed:.2f}s < 30s)")


def test_criterion_6_filling_volume_is_equivariant():
    t0 = time.time()
    s, oracle = load_example("z2")
    cycles = connected_cycles_up_to_action(s, oracle, 1, 6)
    reps = [a for v in cycles.values() for a in v]
    rng = random.Random(66)
    budget = Budget()
    checked = 0
    while checked < 50:
        a = rng.choice(reps)
        word = " ".join(rng.choice(["a", "a^-1", "b", "b^-1"])
                        for _ in range(rng.randint(1, 6)))
        g = parse_word(word, ("a", "b"))
        moved = translate(g, a, oracle)
        assert (filling_volume(moved, s, oracle, budget=budget)
                == filling_volume(a, s, oracle, budget=budget))
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 6: filling volume unchanged under 50 random "
          f"translations ({elapsed:.2f}s < 120s)")


def test_criterion_7_partition_recurrence_is_exhaustive():
    t0 = time.time()
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 12)
        delta = [0]
        for _ in range(n):
            delta.append(delta[-1] + rng.randint(0, 3))
        ours = chain2_bound(delta)
        for j in range(n + 1):
            assert ours[j] == win.partition_max(delta, j)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 7: recurrence equals exhaustive partition "
          f"search on 100 random tables to size 12 ({elapsed:.2f}s < 10s)")


def test_criterion_8_orbit_enumeration_matches_grid_model():
    t0 = time.time()
    s, oracle = load_example("z2")
    kind = {base: ("h" if s.cell_id(1, base) == "e_a" else "v")
            for base in range(s.n_cells(1))}

    def to_window(a):
        return win.canonical({(kind[c.base], *exponent_vector(c.word)): n
                              for c, n in a.terms})

    chains = connected_chains_up_to_action(s, oracle, 1, 6)
    want = win.connected_chain_orbits(6)
    for n in range(1, 7):
        ours = {to_window(a) for a in chains.get(n, [])}
        assert len(ours) == len(chains.get(n, []))
        assert ours == want[n]
    assert {n: len(v) for n, v in chains.items()} == {
        1: 4, 2: 12, 3: 36, 4: 102, 5: 284, 6: 784}
    cycles = connected_cycles_up_to_action(s, oracle, 1, 8)
    wantc = win.connected_cycle_orbits(8)
    for n in range(1, 9):
        ours = {to_window(a) for a in cycles.get(n, [])}
        assert ours == wantc.get(n, set())
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nPASS criterion 8: orbit enumeration identical to the grid "
          f"model, chains to 6 and cycles to 8 ({elapsed:.2f}s < 300s)")


def test_criterion_9_search_oracle_agrees_and_sharpens():
    t0 = time.time()
    p = parse_presentation("<a, b | a b a^-1 b^-1>")
    bfs = BoundedBFSOracle(p, radius=12, sufficient_len=8)
    ab = FreeAbelianOracle(p)
    words = _reduced_words(p.generators, 8)
    assert len(words) == 13121
    for w in words:
        assert bfs.is_trivial(w).name == ab.is_trivial(w).name
    small = BoundedBFSOracle(p, radius=6, sufficient_len=8)
    rng = random.Random(99)
    sample = rng.sample(words, 1000)
    for w in sample:
        got = small.is_trivial(w).name
        full = bfs.is_trivial(w).name
        assert got in ("UNDECIDED", full)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 9: search oracle matches the exact oracle on "
          f"all 13121 words to length 8 and only sharpens with radius "
          f"({elapsed:.2f}s < 60s)")


def test_criterion_10_boundary_and_transpose_are_adjoint():
    t0 = time.time()
    pairs_checked = 0
    for name in ("z2", "f2", "zmod2"):
        s, oracle = load_example(name)
        words = _reduced_words(s.presentation.generators, 3)
        for dim in range(1, s.q + 1):
            if not s.n_cells(dim):
                continue
            for tau in range(s.n_cells(dim)):
                for c in range(s.n_cells(dim - 1)):
                    for g, h in itertools.product(words[:20], words[:20]):
                        up = build_chain(
                            dim, [(LiftedCell(dim, tau, g), 1)], oracle)
                        down = build_chain(
                            dim - 1, [(LiftedCell(dim - 1, c, h), 1)], oracle)
                        lhs = _coeff_of(boundary(up, s, oracle), c, h, oracle)
                        rhs = _coeff_of(coboundary(down.terms[0][0], s, oracle),
                                        tau, g, oracle)
                        assert lhs == rhs
                        pairs_checked += 1
    s, oracle = load_example("surface2")
    rng = random.Random(10)
    gens = s.presentation.generators
    for _ in range(20):
        g = Word(gens, tuple((rng.randrange(4), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 2))))
        h = Word(gens, tuple((rng.randrange(4), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 2))))
        tau, c = rng.randrange(s.n_cells(2)), rng.randrange(s.n_cells(1))
        up = build_chain(2, [(LiftedCell(2, tau, g), 1)], oracle)
        down = build_chain(1, [(LiftedCell(1, c, h), 1)], oracle)
        lhs = _coeff_of(boundary(up, s, oracle), c, h, oracle)
        rhs = _coeff_of(coboundary(down.terms[0][0], s, oracle), tau, g, oracle)
        assert lhs == rhs
        pairs_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 10: boundary coefficients equal transpose "
          f"coefficients on {pairs_checked} pairs ({elapsed:.2f}s < 120s)")
