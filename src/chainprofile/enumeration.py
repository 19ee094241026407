"""Connected chains and cycles of the cover, enumerated up to the deck action.

Connected 1-cycles are simple closed walks in the 1-skeleton: by flow
decomposition (Ahuja, Magnanti, Orlin, Network Flows, 3.5) a connected
integer 1-cycle is one simple circuit with coefficients +-1, and its deck
orbit is the rotation class of its step labels, walked once as the least.

Chains, and cycles of dimension 2 and up, grow one unit at a time from
single-cell seeds: a unit may raise the magnitude of a coefficient already
present (same sign), or sit on a new cell provided its boundary strictly
cancels part of the current boundary.  Disconnected intermediates are kept
while growing; connectivity is filtered at output.  Representatives are
deduplicated up to translation through an anchor signature.

Oracles with normal forms grow on an integer-interned engine (words become
ids, composition is memoized); everything else falls back to chain objects
with bucketed pairwise orbit comparison.
"""

from __future__ import annotations

from .errors import BudgetExceededError, InputError, OracleUndecidedError
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
    OracleVerdict,
    compose,
    exponent_vector,
    invert,
    word_key,
    words_equal,
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

    def add_unit(self, chain, cell, sign):
        """chain + sign on cell, keeping terms sorted by cell."""
        out = []
        placed = False
        for c, n in chain:
            if c == cell:
                m = n + sign
                if m:
                    out.append((c, m))
                placed = True
            elif not placed and c > cell:
                out.append((cell, sign))
                placed = True
                out.append((c, n))
            else:
                out.append((c, n))
        if not placed:
            out.append((cell, sign))
        return tuple(out)

    def signature(self, chain):
        least = min(c[0] for c, _ in chain)
        best = None
        for (base, wid), _ in chain:
            if base != least:
                continue
            g = self.invert(wid)
            ser = tuple(sorted(((b, self.compose(g, w)), n) for (b, w), n in chain))
            if best is None or ser < best:
                best = ser
        return best

    def to_chain(self, chain) -> Chain:
        pairs = [(LiftedCell(self.dim, base, self.words[wid]), n)
                 for (base, wid), n in chain]
        return build_chain(self.dim, pairs, self.oracle)


def _grow_interned(s, oracle, dim, max_norm, node_cap, cycle_target):
    eng = _IdEngine(s, oracle, dim)
    beta = _unit_boundary_norm(s, dim)
    seen = set()
    frontier = []
    for base in range(s.n_cells(dim)):
        for sign in (1, -1):
            chain = (((base, eng.e), sign),)
            sig = eng.signature(chain)
            if sig not in seen:
                seen.add(sig)
                bnd = {cell: n * sign for cell, n in eng.unit_boundary(base, eng.e)}
                frontier.append((chain, bnd, sum(abs(v) for v in bnd.values())))
    out = {}
    processed = 0
    for n in range(1, max_norm + 1):
        if cycle_target:
            frontier = [f for f in frontier if f[2] <= beta * (max_norm - n)]
        out[n] = frontier
        if n == max_norm:
            break
        nxt = []
        for chain, bnd, bnorm in frontier:
            processed += 1
            if node_cap is not None and processed > node_cap:
                raise BudgetExceededError(
                    f"chain enumeration expanded more than {node_cap} chains, "
                    f"reaching norm {n} of {max_norm}")
            support = dict(chain)
            cands = {}
            for cell, coeff in chain:
                cands[(cell, 1 if coeff > 0 else -1)] = True
            for bcell in bnd:
                for cell in eng.adjacent_cells(bcell):
                    existing = support.get(cell)
                    if existing is None:
                        cands.setdefault((cell, 1), False)
                        cands.setdefault((cell, -1), False)
                    else:
                        cands.setdefault((cell, 1 if existing > 0 else -1), True)
            for (cell, sign), increments in sorted(cands.items()):
                ub = eng.unit_boundary(*cell)
                new_bnd = dict(bnd)
                ub_norm = 0
                for bcell, c in ub:
                    c *= sign
                    ub_norm += abs(c)
                    v = new_bnd.get(bcell, 0) + c
                    if v:
                        new_bnd[bcell] = v
                    else:
                        new_bnd.pop(bcell, None)
                new_norm = sum(abs(v) for v in new_bnd.values())
                if not increments and new_norm >= bnorm + ub_norm:
                    continue
                if cycle_target and new_norm > beta * (max_norm - n - 1):
                    continue
                grown = eng.add_unit(chain, cell, sign)
                sig = eng.signature(grown)
                if sig not in seen:
                    seen.add(sig)
                    nxt.append((grown, new_bnd, new_norm))
        frontier = nxt
    return eng, out


# ------------------------------------------------------ object-based fallback

def _orbit_bucket(a: Chain):
    """Cheap translation invariant used to group pairwise comparisons."""
    return tuple(sorted((c.base, n) for c, n in a.terms))


class _OrbitSet:
    """Chains seen so far, one per deck orbit, compared pairwise."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.buckets = {}

    def add(self, a: Chain) -> bool:
        bucket = self.buckets.setdefault(_orbit_bucket(a), [])
        for other in bucket:
            if equal_up_to_translation(other, a, self.oracle):
                return False
        bucket.append(a)
        return True


def _grow_objects(s, oracle, dim, max_norm, node_cap, cycle_target):
    beta = _unit_boundary_norm(s, dim)
    e = identity_word(s.presentation.generators)
    seen = _OrbitSet(oracle)
    cob_cache = {}
    frontier = []
    for base in range(s.n_cells(dim)):
        for sign in (1, -1):
            a = build_chain(dim, [(LiftedCell(dim, base, e), sign)], oracle)
            if seen.add(a):
                frontier.append((a, boundary(a, s, oracle)))
    out = {}
    processed = 0
    for n in range(1, max_norm + 1):
        if cycle_target:
            frontier = [(a, b) for a, b in frontier
                        if norm(b) <= beta * (max_norm - n)]
        out[n] = frontier
        if n == max_norm:
            break
        nxt = []
        for a, bnd in frontier:
            processed += 1
            if node_cap is not None and processed > node_cap:
                raise BudgetExceededError(
                    f"chain enumeration expanded more than {node_cap} chains, "
                    f"reaching norm {n} of {max_norm}")
            bnorm = norm(bnd)
            cands = {}
            for c, coeff in a.terms:
                cands[(c, 1 if coeff > 0 else -1)] = None
            for bc, _ in bnd.terms:
                key = (bc.base, bc.word.letters)
                hit = cob_cache.get(key)
                if hit is None:
                    hit = coboundary(bc, s, oracle)
                    cob_cache[key] = hit
                for tc, _ in hit.terms:
                    existing = a.coeff(tc)
                    if existing == 0:
                        cands.setdefault((tc, 1), None)
                        cands.setdefault((tc, -1), None)
                    else:
                        cands.setdefault((tc, 1 if existing > 0 else -1), None)
            for cell, sign in sorted(cands, key=lambda cs: (cs[0].base, word_key(cs[0].word), cs[1])):
                unit = build_chain(dim, [(cell, sign)], oracle)
                ubnd = boundary(unit, s, oracle)
                new_bnd = add_chains(bnd, ubnd, oracle)
                on_support = a.coeff(cell) != 0
                if not on_support and norm(new_bnd) >= bnorm + norm(ubnd):
                    continue
                if cycle_target and norm(new_bnd) > beta * (max_norm - n - 1):
                    continue
                grown = add_chains(a, unit, oracle)
                if seen.add(grown):
                    nxt.append((grown, new_bnd))
        frontier = nxt
    return out


# ------------------------------------------------- closed walks (1-cycles)

def _closed_walks(s, oracle, max_norm: int, node_cap: int | None = None):
    """Connected 1-cycles up to translation, as simple closed walks.

    An edge with boundary -(w0, v0) + (w1, v1) steps from v0 to v1 by the
    word w0^-1 w1 under label (edge, +1), and back under (edge, -1).  A walk
    ends at the first vertex it meets again; it is kept when that is its
    start and its labels are their own least rotation.
    """
    e = identity_word(s.presentation.generators)
    loop = [(LiftedCell(0, 0, e), 0)] * 2  # ends merged at load; any vertex will do
    steps = {}  # vertex -> [(label, next vertex, step word, edge offset)]
    for edge in range(s.n_cells(1)):
        ends = sorted(s.boundary_chain(1, edge).terms, key=lambda t: t[1])
        (tail, _), (head, _) = ends or loop
        for label, a, b in (((edge, 1), tail, head), ((edge, -1), head, tail)):
            off = invert(a.word)
            steps.setdefault(a.base, []).append((label, b.base, compose(off, b.word), off))
    # closing cut: a step moves the exponent vector by at most `reach` in l1
    # norm, and the vector is a group invariant when no relator moves it
    reach = 0
    if not any(any(exponent_vector(r)) for r in s.presentation.relators):
        reach = max((sum(map(abs, exponent_vector(w)))
                     for moves in steps.values() for _, _, w, _ in moves), default=0)
    out = {n: [] for n in range(1, max_norm + 1)}
    labels, cells, path = [], [], []
    expanded = deepest = 0

    def meets(key, q):
        """Position on the walk of the vertex q, whose key is given, or None."""
        for i, (k, r) in enumerate(path):
            if k == key:
                verdict = words_equal(oracle, r, q)
                if verdict is OracleVerdict.UNDECIDED:
                    raise OracleUndecidedError("oracle could not decide a vertex match")
                if verdict is OracleVerdict.TRIVIAL:
                    return i
        return None

    def extend(p, v):
        nonlocal expanded, deepest
        expanded += 1
        deepest = max(deepest, len(labels))
        if node_cap is not None and expanded > node_cap:
            raise BudgetExceededError(
                f"cycle enumeration expanded more than {node_cap} walks, "
                f"reaching walk length {deepest} of {max_norm}")
        for label, nv, w, off in steps.get(v, ()):
            if labels and (label < labels[0] or label == (labels[-1][0], -labels[-1][1])):
                continue
            q = compose(p, w)
            key = (nv, oracle.invariant_key(q))
            at = meets(key, q)
            labels.append(label)
            cells.append((LiftedCell(1, label[0], compose(p, off)), label[1]))
            n = len(labels)
            if at == 0 and all(labels <= labels[i:] + labels[:i] for i in range(1, n)):
                out[n].append(build_chain(1, cells, oracle))
            elif at is None and n < max_norm and (
                    not reach or -(-sum(map(abs, exponent_vector(q))) // reach) <= max_norm - n):
                path.append((key, q))
                extend(q, nv)
                path.pop()
            labels.pop()
            cells.pop()

    for v in sorted(steps):
        path[:] = [((v, oracle.invariant_key(e)), e)]
        extend(e, v)
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
    if getattr(oracle, "has_normal_forms", False):
        eng, reached = _grow_interned(s, oracle, dim, max_norm, node_cap, cycle_target)
        out = {n: [(eng.to_chain(chain),
                    build_chain(dim - 1, [(LiftedCell(dim - 1, base, eng.words[wid]), c)
                                          for (base, wid), c in bnd.items()], oracle))
                   for chain, bnd, _ in triples]
               for n, triples in reached.items()}
    else:
        out = _grow_objects(s, oracle, dim, max_norm, node_cap, cycle_target)
    return {n: sorted(pairs, key=lambda ab: _chain_sort_key(ab[0]))
            for n, pairs in out.items()}


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
