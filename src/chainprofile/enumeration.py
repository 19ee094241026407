"""Connected chains and cycles of the cover, enumerated up to the deck action.

Connected 1-cycles are simple closed walks in the 1-skeleton: by flow
decomposition (Ahuja, Magnanti, Orlin, Network Flows, 3.5) a connected
integer 1-cycle is one simple circuit with coefficients +-1, and its deck
orbit is the rotation class of its step labels, walked once as the least.

Chains, and cycles of dimension 2 and up, grow one unit at a time from
single-cell seeds: a unit may raise the magnitude of a coefficient already
present (same sign), or sit on a new cell provided its boundary strictly
cancels part of the current boundary.  Disconnected intermediates are kept
while growing; connectivity is filtered at output.  One loop,
`chain_levels`, runs this rule and yields one norm level at a time.

The loop runs over an engine, which holds the chains and decides when two of
them lie in one orbit.  Oracles with normal forms use an integer-interned
engine: words become ids, composition is memoized, and an orbit is a
translation-invariant signature.  Every other oracle uses chain objects,
compared pairwise up to translation within groups of equal (base, coeff)
multisets.
"""

from __future__ import annotations

from .errors import BudgetExceededError, InputError
from .skeleton import (
    Chain,
    LiftedCell,
    add_chains,
    boundary,
    build_chain,
    chains_equal,
    coboundary,
    identity_word,
    is_connected,
    norm,
    translate,
)
from .words import (
    compose,
    exponent_vector,
    invert,
    same_element,
    word_key,
)


def equal_up_to_translation(a: Chain, b: Chain, oracle) -> bool:
    """Whether some deck translation carries b onto a."""
    if a.dim != b.dim or len(a.terms) != len(b.terms) or norm(a) != norm(b):
        return False
    if not a.terms:
        return True
    anchor, _ = a.terms[0]
    for c, _ in b.terms:
        if c.base != anchor.base:
            continue
        g = compose(anchor.word, invert(c.word))
        if chains_equal(translate(g, b, oracle), a, oracle):
            return True
    return False


def _unit_boundary_norm(s, dim: int) -> int:
    """Largest boundary norm of a single cell of the given dimension."""
    return max((norm(s.boundary_chain(dim, b)) for b in range(s.n_cells(dim))), default=0)


def _moves(terms, touching):
    """Growth moves {(cell, sign): on support}: each support cell in the sign
    it has, and each cell off the support that touches the boundary in both
    signs."""
    out = {(cell, 1 if n > 0 else -1): True for cell, n in terms}
    support = {cell for cell, _ in terms}
    for cell in touching:
        if cell not in support:
            out[(cell, 1)] = out[(cell, -1)] = False
    return out


# ------------------------------------------------------- interned fast engine

class _IdEngine:
    """Chains as sorted ((base, word id), coeff) tuples; one id per group
    element under the oracle's normal form."""

    def __init__(self, s, oracle, dim: int):
        self.oracle = oracle
        self.dim = dim
        self.words = []
        self.ids = {}
        self._compose = {}
        self._invert = {}
        self._unit_bnd = {}
        self._cob = {}
        self.seen = set()
        self.e = self.intern(identity_word(s.presentation.generators))
        self.base_bnd = []
        for base in range(s.n_cells(dim)):
            self.base_bnd.append(tuple(
                (bc.base, self.intern(bc.word), n)
                for bc, n in s.boundary_chain(dim, base).terms))
        # cells of dimension dim reachable through a shared boundary cell:
        # for each base cell, its stored boundary terms grouped for the scan
        self._down = {}
        for tbase, terms in enumerate(self.base_bnd):
            for hbase, hwid, _ in terms:
                self._down.setdefault(hbase, []).append((tbase, hwid))

    def intern(self, word) -> int:
        w = self.oracle.normalize(word)
        wid = self.ids.get(w.letters)
        if wid is None:
            wid = len(self.words)
            self.ids[w.letters] = wid
            self.words.append(w)
        return wid

    def compose(self, a: int, b: int) -> int:
        key = (a, b)
        out = self._compose.get(key)
        if out is None:
            out = self.intern(compose(self.words[a], self.words[b]))
            self._compose[key] = out
        return out

    def invert(self, a: int) -> int:
        out = self._invert.get(a)
        if out is None:
            out = self.intern(invert(self.words[a]))
            self._invert[a] = out
        return out

    def unit_boundary(self, base: int, wid: int):
        """Boundary of the +1 unit on (wid, base), as ((cell, coeff), ...)."""
        key = (base, wid)
        out = self._unit_bnd.get(key)
        if out is None:
            acc = {}
            for bbase, bwid, n in self.base_bnd[base]:
                cell = (bbase, self.compose(wid, bwid))
                acc[cell] = acc.get(cell, 0) + n
            out = tuple((cell, n) for cell, n in sorted(acc.items()) if n)
            self._unit_bnd[key] = out
        return out

    def adjacent_cells(self, bcell):
        """Dimension-dim cells whose boundary touches the given cell."""
        out = self._cob.get(bcell)
        if out is None:
            bbase, bwid = bcell
            found = {}
            for tbase, hwid in self._down.get(bbase, ()):
                found[(tbase, self.compose(bwid, self.invert(hwid)))] = None
            out = tuple(found)
            self._cob[bcell] = out
        return out

    def seed(self, base: int, sign: int):
        bnd = {cell: n * sign for cell, n in self.unit_boundary(base, self.e)}
        return (((base, self.e), sign),), bnd, sum(abs(v) for v in bnd.values())

    def candidates(self, chain, bnd):
        """Sorted ((cell, sign), on support) moves."""
        touching = (cell for bcell in bnd for cell in self.adjacent_cells(bcell))
        return sorted(_moves(chain, touching).items())

    def add_boundary(self, bnd, move):
        """bnd plus the boundary of the move, with its norm and the move's."""
        cell, sign = move
        out = dict(bnd)
        unit_norm = 0
        for bcell, c in self.unit_boundary(*cell):
            c *= sign
            unit_norm += abs(c)
            v = out.get(bcell, 0) + c
            if v:
                out[bcell] = v
            else:
                out.pop(bcell, None)
        return out, sum(abs(v) for v in out.values()), unit_norm

    def add_unit(self, chain, move):
        """chain + sign on cell, keeping terms sorted by cell."""
        cell, sign = move
        out = dict(chain)
        out[cell] = out.get(cell, 0) + sign
        return tuple(sorted((c, n) for c, n in out.items() if n))

    def is_new(self, chain) -> bool:
        """Record the orbit of chain; False if it was seen before."""
        least = min(c[0] for c, _ in chain)
        best = None
        for (base, wid), _ in chain:
            if base != least:
                continue
            g = self.invert(wid)
            ser = tuple(sorted(((b, self.compose(g, w)), n) for (b, w), n in chain))
            if best is None or ser < best:
                best = ser
        if best in self.seen:
            return False
        self.seen.add(best)
        return True

    def to_pair(self, chain, bnd):
        """The chain and its boundary as Chain objects."""
        return self._chain(self.dim, chain), self._chain(self.dim - 1, bnd.items())

    def _chain(self, d: int, terms) -> Chain:
        return build_chain(d, [(LiftedCell(d, base, self.words[wid]), n)
                               for (base, wid), n in terms], self.oracle)


# ------------------------------------------------------ object-chain engine

class _ObjectEngine:
    """Chains as Chain objects, for oracles without normal forms; orbits are
    told apart by pairwise equal_up_to_translation among the chains sharing
    a multiset of (base, coeff)."""

    def __init__(self, s, oracle, dim: int):
        self.s = s
        self.oracle = oracle
        self.dim = dim
        self.e = identity_word(s.presentation.generators)
        self.seen = {}
        self._cob = {}

    def seed(self, base: int, sign: int):
        a = build_chain(self.dim, [(LiftedCell(self.dim, base, self.e), sign)], self.oracle)
        bnd = boundary(a, self.s, self.oracle)
        return a, bnd, norm(bnd)

    def candidates(self, a: Chain, bnd: Chain):
        """Sorted (signed unit chain, on support) moves."""
        touching = (tc for bc, _ in bnd.terms for tc, _ in self._coboundary(bc).terms)
        moves = _moves(a.terms, touching)
        order = sorted(moves, key=lambda cs: (cs[0].base, word_key(cs[0].word), cs[1]))
        return ((build_chain(self.dim, [cs], self.oracle), moves[cs]) for cs in order)

    def _coboundary(self, bc):
        key = (bc.base, bc.word.letters)
        hit = self._cob.get(key)
        if hit is None:
            hit = self._cob[key] = coboundary(bc, self.s, self.oracle)
        return hit

    def add_boundary(self, bnd: Chain, unit: Chain):
        ubnd = boundary(unit, self.s, self.oracle)
        out = add_chains(bnd, ubnd, self.oracle)
        return out, norm(out), norm(ubnd)

    def add_unit(self, a: Chain, unit: Chain) -> Chain:
        return add_chains(a, unit, self.oracle)

    def is_new(self, a: Chain) -> bool:
        bucket = self.seen.setdefault(tuple(sorted((c.base, n) for c, n in a.terms)), [])
        if any(equal_up_to_translation(b, a, self.oracle) for b in bucket):
            return False
        bucket.append(a)
        return True

    def to_pair(self, a: Chain, bnd: Chain):
        return a, bnd


# ------------------------------------------------------------ the growth loop

def chain_levels(s, oracle, dim: int, max_norm: int,
                 node_cap: int | None = None, cycle_target: bool = False):
    """Grow chains one norm level at a time, one per orbit.

    Yields (n, [(chain, boundary), ...]) sorted, for n = 1 .. max_norm.
    Level n does not depend on max_norm unless cycle_target is set: chains
    whose boundary norm exceeds what the units left can cancel are dropped.
    """
    eng = (_IdEngine if getattr(oracle, "has_normal_forms", False)
           else _ObjectEngine)(s, oracle, dim)
    beta = _unit_boundary_norm(s, dim)
    frontier = []
    for base in range(s.n_cells(dim)):
        for sign in (1, -1):
            chain, bnd, bnorm = eng.seed(base, sign)
            if eng.is_new(chain):
                frontier.append((chain, bnd, bnorm))
    processed = 0
    for n in range(1, max_norm + 1):
        if cycle_target:
            frontier = [f for f in frontier if f[2] <= beta * (max_norm - n)]
        yield n, sorted((eng.to_pair(chain, bnd) for chain, bnd, _ in frontier),
                        key=lambda ab: _chain_sort_key(ab[0]))
        if n == max_norm:
            return
        eng.seen.clear()  # every chain grown next has norm n + 1
        nxt = []
        for chain, bnd, bnorm in frontier:
            processed += 1
            if node_cap is not None and processed > node_cap:
                raise BudgetExceededError(
                    f"chain enumeration expanded more than {node_cap} chains, "
                    f"reaching norm {n} of {max_norm}")
            for move, on_support in eng.candidates(chain, bnd):
                new_bnd, new_norm, unit_norm = eng.add_boundary(bnd, move)
                if not on_support and new_norm >= bnorm + unit_norm:
                    continue
                if cycle_target and new_norm > beta * (max_norm - n - 1):
                    continue
                grown = eng.add_unit(chain, move)
                if eng.is_new(grown):
                    nxt.append((grown, new_bnd, new_norm))
        frontier = nxt


# ------------------------------------------------- closed walks (1-cycles)

def _closed_walks(s, oracle, max_norm: int, node_cap: int | None = None):
    """Connected 1-cycles up to translation, as simple closed walks.

    An edge with boundary -(w0, v0) + (w1, v1) steps from v0 to v1 by the
    word w0^-1 w1 under label (edge, +1), and back under (edge, -1).  A walk
    ends at the first vertex it meets again; it is kept when that is its
    start and its labels are their own least rotation.

    Each step carries its word, edge offset and exponent vector, so a step
    costs one junction-only `compose` and one vector sum.  The edges become
    lifted cells, each at its vertex word times its offset, only when a walk
    closes and is kept.
    """
    e = identity_word(s.presentation.generators)
    loop = [(LiftedCell(0, 0, e), 0)] * 2  # ends merged at load; any vertex will do
    steps = {}  # vertex -> [(label, next vertex, step word, edge offset, step vector)]
    for edge in range(s.n_cells(1)):
        ends = sorted(s.boundary_chain(1, edge).terms, key=lambda t: t[1])
        (tail, _), (head, _) = ends or loop
        for label, a, b in (((edge, 1), tail, head), ((edge, -1), head, tail)):
            off = invert(a.word)
            w = compose(off, b.word)
            steps.setdefault(a.base, []).append((label, b.base, w, off, exponent_vector(w)))
    # closing cut: a step moves the exponent vector by at most `reach` in l1
    # norm, and the vector is a group invariant when no relator moves it
    reach = 0
    if not any(any(exponent_vector(r)) for r in s.presentation.relators):
        reach = max((sum(map(abs, vec)) for moves in steps.values()
                     for *_, vec in moves), default=0)
    out = {n: [] for n in range(1, max_norm + 1)}
    labels, offs, path = [], [], []
    expanded = deepest = 0

    def meets(key, q):
        """Position on the walk of the vertex q, whose key is given, or None."""
        for i, (k, r) in enumerate(path):
            if k == key and same_element(oracle, r, q):
                return i
        return None

    def extend(p, v, pvec):
        nonlocal expanded, deepest
        expanded += 1
        deepest = max(deepest, len(labels))
        if node_cap is not None and expanded > node_cap:
            raise BudgetExceededError(
                f"cycle enumeration expanded more than {node_cap} walks, "
                f"reaching walk length {deepest} of {max_norm}")
        for label, nv, w, off, vec in steps.get(v, ()):
            if labels and (label < labels[0] or label == (labels[-1][0], -labels[-1][1])):
                continue
            q = compose(p, w)
            key = (nv, oracle.invariant_key(q))
            at = meets(key, q)
            labels.append(label)
            offs.append(off)
            n = len(labels)
            if at == 0 and all(labels <= labels[i:] + labels[:i] for i in range(1, n)):
                out[n].append(build_chain(1, [
                    (LiftedCell(1, edge, compose(r, o)), sign)
                    for (_, r), o, (edge, sign) in zip(path, offs, labels)], oracle))
            elif at is None and n < max_norm:
                qvec = tuple(map(sum, zip(pvec, vec)))
                if not reach or -(-sum(map(abs, qvec)) // reach) <= max_norm - n:
                    path.append((key, q))
                    extend(q, nv, qvec)
                    path.pop()
            labels.pop()
            offs.pop()

    for v in sorted(steps):
        path[:] = [((v, oracle.invariant_key(e)), e)]
        extend(e, v, exponent_vector(e))
    return {n: sorted(reps, key=_chain_sort_key) for n, reps in out.items()}


# ----------------------------------------------------------------- public API

def _chain_sort_key(a: Chain):
    return tuple((c.base, word_key(c.word), n) for c, n in a.terms)


def reachable_chains(s, oracle, dim: int, max_norm: int,
                     node_cap: int | None = None, cycle_target: bool = False):
    """All chains the growth procedure reaches, one per orbit, by norm.

    Returns dict norm -> list of (chain, boundary) pairs.  With cycle_target,
    chains whose boundary norm exceeds what the remaining units can cancel
    are dropped.
    """
    if dim < 1 or dim > s.q:
        raise InputError(f"enumeration dimension {dim} outside 1..{s.q}")
    return dict(chain_levels(s, oracle, dim, max_norm, node_cap, cycle_target))


def connected_chains_up_to_action(s, oracle, dim: int, max_norm: int,
                                  node_cap: int | None = None):
    """Connected chains up to translation, as dict norm -> representatives."""
    reached = reachable_chains(s, oracle, dim, max_norm, node_cap=node_cap)
    return {n: [a for a, _ in pairs if is_connected(a, s, oracle)]
            for n, pairs in reached.items()}


def connected_cycles_up_to_action(s, oracle, dim: int, max_norm: int,
                                  node_cap: int | None = None):
    """Connected cycles up to translation, as dict norm -> representatives."""
    if dim == 1:
        return _closed_walks(s, oracle, max_norm, node_cap)
    reached = reachable_chains(s, oracle, dim, max_norm,
                               node_cap=node_cap, cycle_target=True)
    return {n: [a for a, b in pairs if not b.terms and is_connected(a, s, oracle)]
            for n, pairs in reached.items()}
