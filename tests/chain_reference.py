"""Canonical chains built in three passes, the reference for the one-pass
constructor.

The raw words are freely reduced; each distinct (base, word) cell is mapped
to its representative (`canonical_cells`); the mapped terms are merged,
zero coefficients dropped and the rest sorted by base then shortlex
(`merged_chain`).  The representative is the oracle's normal form when it
has them.  Otherwise the words are added shortest first to an index that
asks the oracle only about same-base words filed under one oracle state,
so each cell keeps the shortlex-least of its raw spellings.
"""

from chainprofile.errors import InputError
from chainprofile.skeleton import Chain, LiftedCell
from chainprofile.words import free_reduce, same_element, word_key


class Elements:
    """The representative word of each lifted cell (base, word)."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.normal = oracle.has_normal_forms
        self.known = {}
        self.buckets = {}
        if not self.normal:
            self.start = oracle.start()

    def rep(self, base, word):
        if self.normal:
            nw = self.known.get(word.letters)
            if nw is None:
                nw = self.known[word.letters] = self.oracle.normalize(word)
            return nw
        hit = self.known.get((base, word.letters))
        if hit is not None:
            return hit
        key = self.oracle.step(self.start, word)
        for r in self.buckets.get((base, key), ()):
            if same_element(self.oracle, r, word):
                self.known[(base, word.letters)] = r
                return r
        self.known[(base, word.letters)] = word
        self.buckets.setdefault((base, key), []).append(word)
        return word


def canonical_cells(raw_cells, oracle):
    """(base, letters) -> (base, representative) of raw (base, word) cells."""
    elements = Elements(oracle)
    cells = {(base, w.letters): (base, w) for base, w in raw_cells}
    order = cells.values()
    if not elements.normal:
        order = sorted(order, key=lambda bw: word_key(bw[1]))
    return {(base, w.letters): (base, elements.rep(base, w)) for base, w in order}


def merged_chain(dim, terms):
    """The chain of (base, reduced word, coeff) triples: equal words of one
    base merged, zero coefficients dropped, sorted by base then shortlex."""
    acc = {}
    for base, w, n in terms:
        key = (base, w.letters)
        prev = acc.get(key)
        acc[key] = (w, n if prev is None else prev[1] + n)
    return Chain(dim, tuple(
        (LiftedCell(dim, base, w), n)
        for (base, _), (w, n) in sorted(acc.items(),
                                        key=lambda kv: (kv[0][0], word_key(kv[1][0])))
        if n))


def reference_chain(dim, pairs, oracle):
    """Canonical chain from raw (LiftedCell, coeff) pairs, in three passes."""
    raw = [(c, n) for c, n in pairs if n]
    for c, _ in raw:
        if c.dim != dim:
            raise InputError(f"cell of dimension {c.dim} in a {dim}-chain")
    raw = [(c.base, free_reduce(c.word), n) for c, n in raw]
    cellmap = canonical_cells(((base, w) for base, w, _ in raw), oracle)
    return merged_chain(dim, [(*cellmap[(base, w.letters)], n) for base, w, n in raw])
