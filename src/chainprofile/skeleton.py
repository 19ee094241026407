"""Cellular skeleton of the universal cover and its integer chain algebra.

A skeleton records the finitely many base cells of a complex with one free
group action orbit per cell.  A lifted cell is a pair (group element, base
cell); a chain is a finite integer combination of lifted cells of one
dimension, kept in canonical form: each cell spelled by its representative
word, equal cells merged, zero coefficients dropped, terms sorted by base
cell index, then shortlex word.  Every chain is built in one pass over raw
(base, word, coeff) triples (`_canonical_chain`): equal spellings merge
first, each distinct spelling is matched to its cell once, and the terms
are sorted on shortlex keys computed once.  One index, `_Elements`,
decides when two words name the same cell.  The representative is the
oracle's normal form when it has them, memoized per oracle with its
shortlex key; otherwise it is the shortlex-least freely reduced spelling
among the chain's raw cells of that element, those whose coefficients
cancel included, and words are matched by the oracle only among those of
one base cell that share its oracle state.  An Undecided verdict raises
OracleUndecidedError.

The skeleton answers for the incidences of its base cells, each table built
on first use: the cofaces of each cell, the boundary terms one dimension up
that meet it, which make `coboundary` a lookup; the largest boundary norm
of a unit cell per dimension; and the steps of the edges.  Every other
module reads these tables.

Subchains, components, and connectivity follow the coefficient-window
definitions: B is a subchain of A when, cell by cell, the coefficient of B
lies between 0 and that of A; a component is a subchain whose boundary is a
subchain of the boundary; A is connected when its only components are 0 and
A itself.  A 1-cycle is connected exactly when it is one circuit, decided in
linear time; other chains are searched subchain by subchain.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import weakref
from functools import cached_property

from .errors import InputError, InvalidSkeletonError
from .words import (
    Presentation,
    Word,
    _Frozen,
    _is_int,
    _shortlex,
    compose,
    format_word,
    free_reduce,
    invert,
    parse_word,
    same_element,
)


class LiftedCell(_Frozen):
    """A lift (g, sigma) of base cell number `base` in dimension `dim`."""
    __slots__ = _fields = ("dim", "base", "word")

    def __init__(self, dim: int, base: int, word: Word):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "word", word)


class Chain(_Frozen):
    """Canonical integer chain: sorted merged terms with nonzero coefficients."""
    __slots__ = _fields = ("dim", "terms")

    def __init__(self, dim: int, terms: tuple[tuple[LiftedCell, int], ...] = ()):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, cell: LiftedCell) -> int:
        """The coefficient of cell, matched by spelling: without normal
        forms a cell spelled another way reads 0 (`chains_equal` and
        `is_subchain` match by element)."""
        for c, n in self.terms:
            if c == cell:
                return n
        return 0


def zero_chain(dim: int) -> Chain:
    return Chain(dim, ())


def norm(a: Chain) -> int:
    return sum(abs(n) for _, n in a.terms)


# ------------------------------------------------------------------ skeleton

class SkeletonSpec:
    """Base cells of the complex, with stored boundary chains.

    cells: iterable of (dim, id, boundary) where boundary lists
    (word, base_id, coeff) triples over cells one dimension down.  An edge
    has one vertex term with -1 and one with +1; ends that merge are a loop.
    """

    def __init__(self, q: int, presentation: Presentation, cells):
        if q < 2:
            raise InvalidSkeletonError(f"dimension must be at least 2, got {q}")
        self.q = q
        self.presentation = presentation
        self.ids: list[list[str]] = [[] for _ in range(q + 1)]
        self.index: dict[str, tuple[int, int]] = {}
        raw = []
        for dim, cid, bnd in cells:
            if not (isinstance(cid, str) and _is_int(dim) and isinstance(bnd, (list, tuple))
                    and all(isinstance(b, str) and _is_int(c) for _, b, c in bnd)):
                raise InputError(f"cell {cid!r} needs a string id, an integer dim, and "
                                 "boundary terms with string bases and integer coeffs")
            if not 0 <= dim <= q:
                raise InvalidSkeletonError(f"cell {cid!r} has dimension {dim} outside 0..{q}")
            if cid in self.index:
                raise InvalidSkeletonError(f"duplicate cell id {cid!r}")
            self.index[cid] = (dim, len(self.ids[dim]))
            self.ids[dim].append(cid)
            raw.append((dim, cid, list(bnd)))
        if not self.ids[0]:
            raise InvalidSkeletonError("skeleton has no vertices")

        # stored boundary chains, exact-merged (no oracle at build time)
        self.boundaries: list[list[Chain]] = [[] for _ in range(q + 1)]
        for dim, cid, bnd in raw:
            if dim == 0:
                if bnd:
                    raise InvalidSkeletonError(f"vertex {cid!r} has a boundary")
                self.boundaries[0].append(zero_chain(-1))
                continue
            if dim == 1 and sorted(coeff for _, _, coeff in bnd) != [-1, 1]:
                raise InvalidSkeletonError(
                    f"edge {cid!r} needs a boundary of one vertex with -1 and one with +1")
            terms = []
            for word, base_id, coeff in bnd:
                if base_id not in self.index:
                    raise InvalidSkeletonError(
                        f"cell {cid!r} boundary references unknown cell {base_id!r}")
                bdim, bidx = self.index[base_id]
                if bdim != dim - 1:
                    raise InvalidSkeletonError(
                        f"cell {cid!r} boundary references {base_id!r} of dimension {bdim}")
                terms.append((bidx, free_reduce(word), coeff))
            self.boundaries[dim].append(_canonical_chain(dim - 1, terms, None))

    def n_cells(self, dim: int) -> int:
        return len(self.ids[dim])

    @cached_property
    def is_presentation_complex(self) -> bool:
        """Whether this is `presentation_complex` of its own presentation."""
        pc = presentation_complex(self.presentation)
        return (self.ids, self.boundaries) == (pc.ids, pc.boundaries)

    @cached_property
    def cofaces(self) -> list[list[list[tuple]]]:
        """cofaces[d][b]: the (upper base, word h, coeff) of every boundary
        term coeff * (h, b) of a (d+1)-cell, upper bases in order."""
        out = [[[] for _ in self.ids[d]] for d in range(self.q)]
        for d in range(self.q):
            for upper, bnd in enumerate(self.boundaries[d + 1]):
                for c, n in bnd.terms:
                    out[d][c.base].append((upper, c.word, n))
        return out

    @cached_property
    def unit_norms(self) -> list[int]:
        """unit_norms[d]: the largest boundary norm of one d-cell."""
        return [max(map(norm, bnds), default=0) for bnds in self.boundaries]

    @cached_property
    def edge_steps(self) -> dict:
        """label -> (vertex, next vertex, step word, edge offset).

        An edge with boundary -(w0, v0) + (w1, v1) steps from v0 to v1 by the
        word w0^-1 w1 under label (edge, +1), and back under (edge, -1); the
        edge sits at the vertex word times the offset.
        """
        e = identity_word(self.presentation.generators)
        loop = [(LiftedCell(0, 0, e), 0)] * 2  # ends merged at load; any vertex will do
        out = {}
        for edge, bnd in enumerate(self.boundaries[1]):
            (tail, _), (head, _) = sorted(bnd.terms, key=lambda t: t[1]) or loop
            for label, a, b in (((edge, 1), tail, head), ((edge, -1), head, tail)):
                off = invert(a.word)
                out[label] = (a.base, b.base, compose(off, b.word), off)
        return out

    def cell_id(self, dim: int, base: int) -> str:
        return self.ids[dim][base]

    def boundary_chain(self, dim: int, base: int) -> Chain:
        return self.boundaries[dim][base]

    @cached_property
    def canonical_json(self) -> str:
        """to_json_dict() as sorted-key JSON text: what the fingerprint hashes."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_json_dict(self) -> dict:
        cells = []
        for dim in range(self.q + 1):
            for base, cid in enumerate(self.ids[dim]):
                entry: dict = {"dim": dim, "id": cid}
                if dim > 0:
                    entry["boundary"] = chain_to_json(self.boundary_chain(dim, base),
                                                      self)["terms"]
                cells.append(entry)
        return {
            "dim": self.q,
            "presentation": {
                "generators": list(self.presentation.generators),
                "relators": [format_word(r) for r in self.presentation.relators],
            },
            "cells": cells,
        }


def presentation_complex(p: Presentation) -> SkeletonSpec:
    """One vertex, one edge per generator, one 2-cell per relator.

    The relator cell boundary lifts the relator letter by letter: reading
    y1^e1 ... yk^ek with reduced prefixes w0 = 1, wi = w(i-1) * yi^ei, the
    i-th term is +(w(i-1), e_yi) for ei = +1 and -(wi, e_yi) for ei = -1.
    """
    gens = p.generators
    cells: list = [(0, "v", [])]
    for name in gens:
        cells.append((1, f"e_{name}", [(identity_word(gens), "v", -1),
                                       (Word(gens, ((gens.index(name), 1),)), "v", 1)]))
    for i, r in enumerate(p.relators):
        bnd = []
        w = identity_word(gens)
        for g, s in r.letters:
            name = gens[g]
            if s > 0:
                bnd.append((w, f"e_{name}", 1))
                w = compose(w, Word(gens, ((g, 1),)))
            else:
                w = compose(w, Word(gens, ((g, -1),)))
                bnd.append((w, f"e_{name}", -1))
        cells.append((2, f"f{i}", bnd))
    return SkeletonSpec(2, p, cells)


def identity_word(gens) -> Word:
    return Word(tuple(gens), ())


# ------------------------------------------------------------ canonical form

# oracle -> {letters: (normal form, its shortlex key)}, for oracles with
# normal forms
_NORMAL_FORMS = weakref.WeakKeyDictionary()


class _Elements:
    """The representative word of each lifted cell (base, word).

    With normal forms the representative is the normal form; `form` gives
    it with its shortlex key, memoized by spelling in one memo per oracle
    and shared across bases.  Otherwise it is the first word added for the
    cell: a lookup tries the exact spelling, and only then asks the oracle
    about the same-base words filed under the word's oracle state,
    `step(start(), word)`; `cells`, the (base, word) cells of a canonical
    chain, are then taken as their own representatives without a check.
    """

    def __init__(self, oracle, cells=()):
        self.oracle = oracle
        self.normal = oracle.has_normal_forms
        if self.normal:
            self.forms = _NORMAL_FORMS.setdefault(oracle, {})
            return
        self.known = {}  # (base, letters) -> representative
        self.buckets: dict[tuple, list[Word]] = {}
        self.start = oracle.start()
        for base, word in cells:
            self._file(base, word, oracle.step(self.start, word))

    def _file(self, base, word, key):
        self.known[(base, word.letters)] = word
        self.buckets.setdefault((base, key), []).append(word)

    def form(self, word: Word):
        """(normal form, its shortlex key) of a freely reduced word."""
        hit = self.forms.get(word.letters)
        if hit is None:
            nw = self.oracle.normalize(word)
            hit = self.forms[word.letters] = (nw, _shortlex(nw.letters))
        return hit

    def rep(self, base: int, word: Word, add: bool = True):
        """The representative of (base, word), word freely reduced.  A cell
        not seen before gets word as its representative, or None when add is
        false."""
        if self.normal:
            return self.form(word)[0]
        hit = self.known.get((base, word.letters))
        if hit is not None:
            return hit
        key = self.oracle.step(self.start, word)
        for r in self.buckets.get((base, key), ()):
            if same_element(self.oracle, r, word):
                self.known[(base, word.letters)] = r
                return r
        if add:
            self._file(base, word, key)
            return word
        return None


def _cells(terms, oracle):
    """The cells that raw (base, word, coeff) triples of one dimension name,
    words freely reduced and terms of coefficient 0 skipped.

    Equal spellings merge first; then each distinct spelling is matched to
    its cell once, by `_Elements`, or by spelling alone when oracle is None.
    Without normal forms the spellings are taken shortest first, so each
    cell is spelled by the shortlex-least of its raw spellings, those whose
    coefficients cancel included.  Returns (spelled, cells): cells maps
    (base, letters of the representative) to the cell's [base, shortlex
    key, representative, coefficient sum], and spelled each raw (base,
    letters) to the same list.
    """
    spelled: dict[tuple, list] = {}
    for base, w, n in terms:
        if n:
            cell = (base, w.letters)
            hit = spelled.get(cell)
            if hit is None:
                spelled[cell] = [w, n]
            else:
                hit[1] += n
    elements = None if oracle is None else _Elements(oracle)
    if elements is not None and elements.normal:
        order = ((None, 0, cell) for cell in spelled)
    else:
        order = sorted((_shortlex(cell[1]), i, cell) for i, cell in enumerate(spelled))
    cells: dict[tuple, list] = {}
    for key, _, cell in order:
        base = cell[0]
        w, n = spelled[cell]
        if elements is None:
            rep = w
        elif elements.normal:
            rep, key = elements.form(w)
        else:
            rep = elements.rep(base, w)
        found = cells.get((base, rep.letters))
        if found is None:  # rep is w, or its normal form with key
            found = cells[(base, rep.letters)] = [base, key, rep, 0]
        found[3] += n
        spelled[cell] = found
    return spelled, cells


def _canonical_chain(dim: int, terms, oracle) -> Chain:
    """The canonical dim-chain of raw (base, freely reduced word, coeff)
    triples, cells as `_cells` names them: zero coefficients dropped, terms
    sorted by base then shortlex.  Every chain writer ends here."""
    cells = sorted(c for c in _cells(terms, oracle)[1].values() if c[3])
    return Chain(dim, tuple([(LiftedCell(dim, base, w), n) for base, _, w, n in cells]))


def build_chain(dim: int, pairs, oracle) -> Chain:
    """Canonical chain from raw (LiftedCell, coeff) pairs."""
    terms = []
    for c, n in pairs:
        if n:
            if c.dim != dim:
                raise InputError(f"cell of dimension {c.dim} in a {dim}-chain")
            terms.append((c.base, free_reduce(c.word), n))
    return _canonical_chain(dim, terms, oracle)


def add_chains(a: Chain, b: Chain, oracle) -> Chain:
    if a.dim != b.dim:
        raise InputError(f"cannot add chains of dimensions {a.dim} and {b.dim}")
    return build_chain(a.dim, tuple(a.terms) + tuple(b.terms), oracle)


def scale_chain(a: Chain, s: int) -> Chain:
    if s == 0:
        return zero_chain(a.dim)
    return Chain(a.dim, tuple((c, n * s) for c, n in a.terms))


def negate(a: Chain) -> Chain:
    return Chain(a.dim, tuple((c, -n) for c, n in a.terms))


# ------------------------------------------------------------------ operators

def boundary(a: Chain, s: SkeletonSpec, oracle) -> Chain:
    """Boundary of a chain; lifts commute with the deck action, so each term
    contributes its translated stored boundary."""
    return _canonical_chain(a.dim - 1, _boundary_terms(a, s), oracle)


def _boundary_terms(a: Chain, s: SkeletonSpec) -> list:
    """The raw (base, word, coeff) terms of the boundary of a."""
    if a.dim < 1:
        raise InputError("chains of dimension 0 have no boundary")
    return [(bc.base, compose(c.word, bc.word), bn * n)
            for c, n in a.terms for bc, bn in s.boundaries[c.dim][c.base].terms]


def translate(g: Word, a: Chain, oracle) -> Chain:
    g = free_reduce(g)
    return _canonical_chain(a.dim, [(c.base, compose(g, c.word), n) for c, n in a.terms],
                            oracle)


def is_cycle(a: Chain, s: SkeletonSpec, oracle) -> bool:
    if a.dim < 1:
        raise InputError("cycles live in dimension 1 and up")
    return not boundary(a, s, oracle).terms


def validate(s: SkeletonSpec, oracle) -> bool:
    """Check boundary-of-boundary vanishes for every base cell.

    Structural soundness (references, dimensions) is enforced at build time;
    this pass needs the oracle because cancellation happens between lifts
    whose words are equal only in the group.
    """
    for dim in range(2, s.q + 1):
        for base in range(s.n_cells(dim)):
            cell = Chain(dim, ((LiftedCell(dim, base, identity_word(s.presentation.generators)), 1),))
            dd = boundary(boundary(cell, s, oracle), s, oracle)
            if dd.terms:
                raise InvalidSkeletonError(
                    f"boundary of boundary of cell {s.cell_id(dim, base)!r} is nonzero")
    return True


def coboundary(c: LiftedCell, s: SkeletonSpec, oracle) -> Chain:
    """All lifted (dim+1)-cells whose boundary touches c, with coefficients.

    Each coface (tau, h, k) of base(c) (`SkeletonSpec.cofaces`) puts the
    lift of tau at g = word(c) * h^-1, with coefficient the sum of its k.
    """
    dim = c.dim
    if dim >= s.q:
        raise InputError(f"no cells above dimension {s.q}")
    w = free_reduce(c.word)
    return _canonical_chain(dim + 1, [(upper, compose(w, invert(h)), k)
                                      for upper, h, k in s.cofaces[dim][c.base]], oracle)


# ----------------------------------------------------- subchains, components

def subchains(a: Chain):
    """All subchains, the zero chain and a itself included."""
    ranges = [range(0, abs(n) + 1) for _, n in a.terms]
    signs = [1 if n > 0 else -1 for _, n in a.terms]
    cells = [c for c, _ in a.terms]
    for combo in itertools.product(*ranges):
        terms = tuple((c, s * t) for c, s, t in zip(cells, signs, combo) if t)
        yield Chain(a.dim, terms)


def is_subchain(b: Chain, a: Chain, oracle) -> bool:
    """Cellwise: coefficient of b lies between 0 and the coefficient of a."""
    if b.dim != a.dim:
        return False
    acoeff = _coeff_lookup(a, oracle)
    for c, nb in b.terms:
        na = acoeff(c)
        if na >= 0:
            if not 0 <= nb <= na:
                return False
        else:
            if not na <= nb <= 0:
                return False
    return True


def _coeff_lookup(a: Chain, oracle):
    """Coefficient accessor that matches cells by group element, however the
    same element is spelled in another chain."""
    elements = _Elements(oracle, ((c.base, c.word) for c, _ in a.terms))
    table = {(c.base, c.word.letters): n for c, n in a.terms}

    def get(c: LiftedCell) -> int:
        rep = elements.rep(c.base, c.word, add=False)
        return 0 if rep is None else table.get((c.base, rep.letters), 0)
    return get


def chains_equal(a: Chain, b: Chain, oracle) -> bool:
    if a.dim != b.dim or len(a.terms) != len(b.terms):
        return False
    if oracle.has_normal_forms:
        return a.terms == b.terms
    bcoeff = _coeff_lookup(b, oracle)
    return all(bcoeff(c) == n for c, n in a.terms) and norm(a) == norm(b)


def _aligned_units(a: Chain, s: SkeletonSpec, oracle):
    """Boundaries of the signed unit cells of a, over one shared cell index.

    Returns (mags, unit_vectors, totals) where mags[i] is |n_i|,
    unit_vectors[i] maps boundary-cell index -> coefficient of the boundary
    of sign(n_i) * cell_i, and totals is the coefficient vector of
    boundary(a).  One element index keeps cell identities consistent across
    units for any oracle.
    """
    elements = _Elements(oracle)
    index: dict[tuple, int] = {}
    units = []
    totals: dict[int, int] = {}
    for c, n in a.terms:
        sgn = 1 if n > 0 else -1
        vec: dict[int, int] = {}
        for bc, bn in s.boundary_chain(c.dim, c.base).terms:
            rep = elements.rep(bc.base, compose(c.word, bc.word))
            i = index.setdefault((bc.base, rep.letters), len(index))
            vec[i] = vec.get(i, 0) + bn * sgn
            if not vec[i]:
                del vec[i]
        units.append(vec)
        for i, d in vec.items():
            totals[i] = totals.get(i, 0) + d * abs(n)
            if not totals[i]:
                del totals[i]
    return [abs(n) for _, n in a.terms], units, totals


def _is_circuit(mags, units) -> bool:
    """Whether a nonzero 1-cycle, aligned as `_aligned_units` gives it, is
    one circuit: every coefficient +-1, one arc tail -> head leaving each
    vertex (so one entering it), and the arcs one closed walk.  A loop edge,
    whose unit boundary is 0, is a circuit by itself and only by itself."""
    if any(m != 1 for m in mags) or not all(units):
        return mags == [1]
    step = dict(sorted(vec, key=vec.get) for vec in units)
    start = v = next(iter(step))
    for k in range(1, len(step) + 1):
        v = step[v]
        if v == start:
            return k == len(units)
    return False


def _find_component(mags, units, totals):
    """Smallest proper nonzero component, as a magnitude vector, of the
    chain with these magnitudes, aligned unit boundaries and boundary
    totals (`_aligned_units`), or None.

    Scans candidate subchains by increasing norm, choosing per-cell
    magnitudes in canonical term order, pruning on boundary cells whose
    contributors are all decided.
    """
    k = len(mags)
    last_touch = {x: i for i, vec in enumerate(units) if mags[i] for x in vec}
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + mags[i]

    def dfs(i, used, partial, v):
        if used + suffix[i] < v:
            return None
        if i == k:
            return () if used == v else None
        lo = max(0, v - used - suffix[i + 1])
        hi = min(mags[i], v - used)
        for t in range(lo, hi + 1):
            newp = partial
            if t:
                newp = dict(partial)
                for x, d in units[i].items():
                    newp[x] = newp.get(x, 0) + d * t
            # a boundary cell whose contributors are all decided must lie
            # between 0 and its total
            decided = [(newp.get(x, 0), totals.get(x, 0))
                       for x in units[i] if last_touch.get(x) == i]
            if not all(0 <= val <= tot or tot <= val <= 0 for val, tot in decided):
                continue
            rest = dfs(i + 1, used + t, newp, v)
            if rest is not None:
                return (t,) + rest
        return None

    for v in range(1, sum(mags)):
        found = dfs(0, 0, {}, v)
        if found is not None:
            return found
    return None


def _vector_to_subchain(a: Chain, vec) -> Chain:
    terms = []
    for (c, n), t in zip(a.terms, vec):
        if t:
            terms.append((c, t if n > 0 else -t))
    return Chain(a.dim, tuple(terms))


def is_connected(a: Chain, s: SkeletonSpec, oracle) -> bool:
    """True when the only components are 0 and the chain itself.

    A component of a 1-cycle is a subcycle, and every 1-cycle holds a
    circuit, so a 1-cycle is connected exactly when it is one circuit
    (`_is_circuit`), decided in linear time; any other chain takes the
    subchain search."""
    if not a.terms:
        return False
    mags, units, totals = _aligned_units(a, s, oracle)
    if a.dim == 1 and not totals:
        return _is_circuit(mags, units)
    return _find_component(mags, units, totals) is None


def components(a: Chain, s: SkeletonSpec, oracle) -> list[Chain]:
    """Decompose into connected components, smallest split off first.

    The chain is aligned once; each component found is taken off the
    magnitudes and the boundary totals of what remains.  The norm laws hold
    exactly: component norms sum to the chain norm, and component boundary
    norms sum to the boundary norm.
    """
    if not a.terms:
        return []
    mags, units, totals = _aligned_units(a, s, oracle)
    out = []
    while (vec := _find_component(mags, units, totals)) is not None:
        out.append(_vector_to_subchain(a, vec))
        mags = [m - t for m, t in zip(mags, vec)]
        for unit, t in zip(units, vec):
            for x, d in unit.items():
                totals[x] = totals.get(x, 0) - d * t
    out.append(_vector_to_subchain(a, mags))
    return out


# -------------------------------------------------------------- serialization

def chain_to_json(a: Chain, s: SkeletonSpec) -> dict:
    return {
        "dim": a.dim,
        "terms": [
            {"word": format_word(c.word), "base": s.cell_id(c.dim, c.base), "coeff": n}
            for c, n in a.terms
        ],
    }


def chain_from_json(data: dict, s: SkeletonSpec, oracle) -> Chain:
    try:
        dim = data["dim"]
        if not _is_int(dim):
            raise InputError(f"chain dimension {dim!r} is not an integer")
        return _chain_from_terms(
            dim, ((t["word"], t["base"], t["coeff"]) for t in data["terms"]), s, oracle)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed chain data: {e}") from None


def _chain_from_terms(dim: int, terms, s: SkeletonSpec, oracle) -> Chain:
    """The dim-chain of (word text, cell id, coeff) terms, read in order:
    the reader of stored chains and of chain literals alike."""
    gens = s.presentation.generators
    return _canonical_chain(dim, [(_stored_cell(s, dim, base_id, coeff),
                                   parse_word(word, gens), coeff)
                                  for word, base_id, coeff in terms], oracle)


def _stored_cell(s: SkeletonSpec, dim: int, base_id, coeff) -> int:
    """The index of the stored term's cell base_id, checked to be a known
    dim-cell with an integer coefficient."""
    if base_id not in s.index:
        raise InputError(f"unknown cell id {base_id!r}")
    if not _is_int(coeff):
        raise InputError(f"coefficient {coeff!r} of cell {base_id!r} is not an integer")
    bdim, bidx = s.index[base_id]
    if bdim != dim:
        raise InputError(f"cell {base_id!r} has dimension {bdim}, chain says {dim}")
    return bidx


def skeleton_fingerprint(s: SkeletonSpec, oracle) -> str:
    payload = s.canonical_json + "|" + oracle.name
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
