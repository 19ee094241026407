"""Workload definitions: seeded inputs, CLI query lists and reference checks.

Nothing here imports chainprofile.  The references are computed from
independent models (the square grid, the genus-two octagon tiling, small
permutation groups) or frozen from the literature, so a wrong answer from
the package cannot also make its own check pass.

A workload is built by `build(name, seed, workdir, smoke)`, which returns
the inputs the program must load and the list of queries.  Each query is a
`Query`: CLI arguments (without --format, --cache and --workers, which the
runner adds) plus a `check(answer)` that raises `Mismatch` when the JSON
answer disagrees with the reference.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

NAMES = ("profile", "disk-fill", "finite-sweep")


class Mismatch(Exception):
    """A query answer disagrees with its reference."""


@dataclass
class Query:
    label: str
    argv: list
    check: Callable[[dict], None]


@dataclass
class Workload:
    inputs: list            # --input values the queries use, for set-up
    queries: list


def _expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


def _values_check(expected):
    def check(answer):
        _expect(answer.get("values") == expected,
                f"values {answer.get('values')} != reference {expected}")
    return check


# ------------------------------------------------------------ word helpers

def _reduce(letters):
    out = []
    for x in letters:
        if out and out[-1][0] == x[0] and out[-1][1] == -x[1]:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _inverse(letters):
    return tuple((g, -s) for g, s in reversed(letters))


def _format(letters, gens):
    """Word literal in the package's chain-literal syntax ('1' is empty)."""
    if not letters:
        return "1"
    return " ".join(gens[g] if s > 0 else f"{gens[g]}^-1" for g, s in letters)


def _literal(terms):
    """Chain literal from ((word text, cell id), coeff) pairs, coeff = +-1."""
    text = " ".join(f"{'-' if c < 0 else '+'} ({word}, {cid})" for (word, cid), c in terms)
    return text[2:] if text.startswith("+ ") else text


# ------------------------------------------------------------------- z2 grid
# Cells of the square grid, as in the hand-derived lift of a b a^-1 b^-1:
#   d f(x,y) = h(x,y) + v(x+1,y) - h(x,y+1) - v(x,y)
# with h(x,y) = (a^x b^y, e_a), v(x,y) = (a^x b^y, e_b), f(x,y) = (a^x b^y, f0).

def _grid_word(x, y):
    parts = [f"{n}^{k}" if k != 1 else n for n, k in (("a", x), ("b", y)) if k]
    return " ".join(parts) or "1"


def _grid_face_boundary(x, y):
    return {("h", x, y): 1, ("v", x + 1, y): 1, ("h", x, y + 1): -1, ("v", x, y): -1}


def _grid_add(acc, chain, k=1):
    for cell, c in chain.items():
        v = acc.get(cell, 0) + k * c
        if v:
            acc[cell] = v
        else:
            acc.pop(cell, None)
    return acc


def _grid_boundary(faces):
    acc = {}
    for cell, c in faces.items():
        _grid_add(acc, _grid_face_boundary(cell[1], cell[2]), c)
    return acc


def _grid_cell_literal(cell):
    kind, x, y = cell
    return (_grid_word(x, y), {"h": "e_a", "v": "e_b", "f": "f0"}[kind])


def _parse_grid_word(text):
    """Exponent sums (x, y) of a word over a, b as the package prints it."""
    x = y = 0
    for tok in text.split():
        if tok == "1":
            continue
        name, _, power = tok.partition("^")
        k = int(power) if power else 1
        if name == "a":
            x += k
        elif name == "b":
            y += k
        else:
            raise Mismatch(f"unexpected generator in grid word {text!r}")
    return x, y


def _grid_chain_from_json(data):
    kinds = {"e_a": "h", "e_b": "v", "f0": "f"}
    out = {}
    for t in data["terms"]:
        x, y = _parse_grid_word(t["word"])
        _grid_add(out, {(kinds[t["base"]], x, y): int(t["coeff"])})
    return out


def polyomino(rng, area):
    """Random polyomino grown square by square across shared edges."""
    cells = [(0, 0)]
    seen = {(0, 0)}
    while len(cells) < area:
        x, y = rng.choice(cells)
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        nxt = (x + dx, y + dy)
        if nxt not in seen:
            seen.add(nxt)
            cells.append(nxt)
    return sorted(cells)


def _grid_fv_query(label, cells):
    faces = {("f", x, y): 1 for x, y in cells}
    cycle = _grid_boundary(faces)
    literal = _literal([(_grid_cell_literal(c), n) for c, n in sorted(cycle.items())])

    def check(answer):
        _expect(answer.get("value") == len(cells),
                f"FV {answer.get('value')} != area {len(cells)}")
        # the filling is unique (aspherical one-relator complex): it must be
        # the generating disk itself
        _expect(_grid_chain_from_json(answer["filling"]) == faces,
                "filling differs from the generating disk")

    return Query(label, ["fv", "--input", "z2", "--chain", literal], check)


def _grid_psi_witness_check(expected):
    base = _values_check(expected)

    def check(answer):
        base(answer)
        for k, wit in enumerate(answer["witnesses"]):
            if wit is None:
                _expect(expected[k] == 0, f"missing witness at n={k}")
                continue
            cyc = _grid_chain_from_json(wit["cycle"])
            fill = _grid_chain_from_json(wit["filling"])
            _expect(sum(map(abs, cyc.values())) <= k, f"witness cycle too long at n={k}")
            _expect(sum(map(abs, fill.values())) == expected[k],
                    f"witness filling norm wrong at n={k}")
            _expect(_grid_boundary(fill) == cyc, f"witness does not fill at n={k}")
    return check


# ------------------------------------------------------------ surface2 tiling
# Relator a b a^-1 b^-1 c d c^-1 d^-1.  Each generator occurs once with each
# sign, so every edge of the cover lies on exactly two octagons, with
# opposite signs.  The dual graph of the {8,8} tiling has girth 8, so a disk
# of at most 7 octagons grown across edges is a tree of faces: its boundary is
# exactly the edges not crossed, and its norm is the face count.

SURFACE_GENS = ("a", "b", "c", "d")
SURFACE_REL = ((0, 1), (1, 1), (0, -1), (1, -1), (2, 1), (3, 1), (2, -1), (3, -1))


# every cyclic permutation of the relator and of its inverse
SURFACE_FORMS = [r[i:] + r[:i] for r in (SURFACE_REL, _inverse(SURFACE_REL))
                 for i in range(len(SURFACE_REL))]


def _dehn(letters):
    """Shorten a word by Dehn's algorithm: a subword of 5 letters of a cyclic
    form r = p q of the relator equals q^-1, of 3 letters.  Words then stay
    short however the disk grows, so the seed changes the query cost less."""
    w = _reduce(letters)
    while True:
        for form in SURFACE_FORMS:
            for i in range(len(w) - 4):
                if w[i:i + 5] == form[:5]:
                    w = _reduce(w[:i] + _inverse(form[5:]) + w[i + 5:])
                    break
            else:
                continue
            break
        else:
            return w


def _octagon_edge(g, i):
    """Lifted edge (word, generator, coeff) of position i of the face at g."""
    x, s = SURFACE_REL[i]
    if s > 0:
        return _dehn(g + SURFACE_REL[:i]), x, 1
    return _dehn(g + SURFACE_REL[:i + 1]), x, -1


def _octagon_neighbour(g, i):
    """Face across position i of the face at g, and its position there."""
    x, s = SURFACE_REL[i]
    j = SURFACE_REL.index((x, -s))
    u, _, _ = _octagon_edge(g, i)
    prefix = SURFACE_REL[:j + 1] if -s < 0 else SURFACE_REL[:j]
    return _dehn(u + _inverse(prefix)), j


def surface_disk(rng, faces):
    """Random disk of octagons, as (face words, boundary edges)."""
    words = [()]
    crossed = set()
    while len(words) < faces:
        f = rng.randrange(len(words))
        free = [i for i in range(8) if (f, i) not in crossed]
        i = rng.choice(free)
        h, j = _octagon_neighbour(words[f], i)
        crossed.add((f, i))
        crossed.add((len(words), j))
        words.append(h)
    edges = [_octagon_edge(words[f], i)
             for f in range(len(words)) for i in range(8) if (f, i) not in crossed]
    return words, edges


def _surface_fv_query(label, rng, faces):
    _, edges = surface_disk(rng, faces)
    literal = _literal([((_format(w, SURFACE_GENS), f"e_{SURFACE_GENS[x]}"), c)
                        for w, x, c in edges])

    def check(answer):
        _expect(answer.get("value") == faces,
                f"FV {answer.get('value')} != face count {faces}")
        norm = sum(abs(int(t["coeff"])) for t in answer["filling"]["terms"])
        _expect(norm == faces, f"filling norm {norm} != face count {faces}")

    return Query(label, ["fv", "--input", "surface2", "--chain", literal], check)


# ------------------------------------------------------------- finite groups

@dataclass
class FiniteGroup:
    elements: list
    mul: Callable           # mul(p, q) = p * q
    gens: dict              # generator name -> element
    relators: list          # each a list of (generator name, +-1)
    values: list            # reference finite profile for n = 0..len - 1


def _word(text):
    """'a b a^-1' -> [("a", 1), ("b", 1), ("a", -1)]"""
    return [(t[0], -1 if t.endswith("^-1") else 1) for t in text.split()]


FINITE = {
    # the reference values equal the package's output at the commit that
    # defined the benchmark
    "klein": FiniteGroup(
        [(i, j) for i in (0, 1) for j in (0, 1)],
        lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2),
        {"a": (1, 0), "b": (0, 1)},
        [_word("a a"), _word("b b"), _word("a b a^-1 b^-1")],
        [0, 0, 1, 1, 3, 3, 4, 4, 6]),
    "s3": FiniteGroup(
        list(itertools.permutations(range(3))),
        lambda p, q: tuple(p[q[i]] for i in range(3)),   # p after q
        {"a": (1, 0, 2), "b": (0, 2, 1)},
        [_word("a a"), _word("b b"), _word("a b a b a b")],
        [0, 0, 1, 1, 2, 2, 4]),
}


def _finite_input(group, rng, path):
    """Write a finite-table input with seeded element labels and order;
    return the label of each element."""
    elems = list(group.elements)
    rng.shuffle(elems)
    labels = [f"x{k}" for k in range(len(elems))]
    rng.shuffle(labels)
    idx = {e: k for k, e in enumerate(elems)}
    relators = ", ".join(" ".join(x if s > 0 else f"{x}^-1" for x, s in r)
                         for r in group.relators)
    data = {"dim": 2, "presentation": f"<{', '.join(group.gens)} | {relators}>",
            "oracle": {"kind": "finite-table", "elements": labels,
                       "table": [[idx[group.mul(p, q)] for q in elems] for p in elems],
                       "generator_map": {g: idx[e] for g, e in group.gens.items()}}}
    with open(path, "w") as fh:
        json.dump(data, fh)
    return dict(zip(labels, elems))


def _finite_check(group, by_label, n):
    expected = group.values[:n + 1]
    mul = group.mul
    one = next(e for e in group.elements if all(mul(e, r) == r for r in group.elements))
    inv = {p: next(q for q in group.elements if mul(p, q) == one) for p in group.elements}

    def face_boundary(g, k):
        out = {}
        cur = g
        for x, s in group.relators[k]:
            if s > 0:
                out[(cur, f"e_{x}")] = out.get((cur, f"e_{x}"), 0) + 1
                cur = mul(cur, group.gens[x])
            else:
                cur = mul(cur, inv[group.gens[x]])
                out[(cur, f"e_{x}")] = out.get((cur, f"e_{x}"), 0) - 1
        return out

    def chain(terms):
        out = {}
        for t in terms:
            key = (by_label[t["element"]], t["base"])
            out[key] = out.get(key, 0) + int(t["coeff"])
        return {k: v for k, v in out.items() if v}

    def check(answer):
        _expect(answer.get("values") == expected,
                f"values {answer.get('values')} != reference {expected}")
        for k, wit in enumerate(answer["witnesses"]):
            if wit is None:
                _expect(expected[k] == 0, f"missing witness at n={k}")
                continue
            cyc, fill = chain(wit["cycle"]), chain(wit["filling"])
            _expect(sum(map(abs, cyc.values())) <= k, f"witness cycle too long at n={k}")
            _expect(sum(map(abs, fill.values())) == expected[k],
                    f"witness filling norm wrong at n={k}")
            got = {}
            for (g, base), c in fill.items():
                for cell, d in face_boundary(g, int(base[1:])).items():
                    got[cell] = got.get(cell, 0) + c * d
            got = {k2: v for k2, v in got.items() if v}
            _expect(got == cyc, f"witness filling does not bound its cycle at n={k}")
    return check


# --------------------------------------------------------------- workloads

Z2_PSI = [0, 0, 0, 0, 1, 1, 2, 2, 4, 4, 6]   # frozen in tests/test_acceptance.py
Z2_AREAS = (4, 5, 5, 6, 6, 6)
SURFACE_FACES = (2, 3, 3, 3)


def build(name, seed, workdir, smoke=False):
    rng = random.Random(f"{name}:{seed}")
    if name == "profile":
        z2_n = 6 if smoke else 10
        queries = [
            Query(f"psi z2 -n {z2_n}", ["psi", "--input", "z2", "-n", str(z2_n)],
                  _grid_psi_witness_check(Z2_PSI[:z2_n + 1])),
        ]
        if not smoke:
            queries += [
                Query("phi f2 -n 10", ["phi", "--input", "f2", "-n", "10"],
                      _values_check([0] * 11)),
                Query("psi surface2 -n 4", ["psi", "--input", "surface2", "-n", "4"],
                      _values_check([0] * 5)),
            ]
        rng.shuffle(queries)
        return Workload(["z2"] if smoke else ["z2", "f2", "surface2"], queries)
    if name == "disk-fill":
        areas = (4,) if smoke else Z2_AREAS
        queries = [_grid_fv_query(f"fv z2 area {a}", polyomino(rng, a)) for a in areas]
        if smoke:
            return Workload(["z2"], queries)
        queries += [_surface_fv_query(f"fv surface2 {f} faces", rng, f)
                    for f in SURFACE_FACES]
        return Workload(["z2", "surface2"], queries)
    if name == "finite-sweep":
        sizes = (("klein", 4),) if smoke else (("klein", 8), ("s3", 6))
        inputs, queries = [], []
        for group, n in sizes:
            path = os.path.join(workdir, f"{group}.json")
            by_label = _finite_input(FINITE[group], rng, path)
            inputs.append(path)
            queries.append(Query(f"finite-profile {group} -n {n}",
                                 ["finite-profile", "--input", path, "-n", str(n)],
                                 _finite_check(FINITE[group], by_label, n)))
        return Workload(inputs, queries)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
