"""Connected chains and cycles of the cover, enumerated up to the deck action.

Connected 1-cycles are simple closed walks in the 1-skeleton: by flow
decomposition (Ahuja, Magnanti, Orlin, Network Flows, 3.5) a connected
integer 1-cycle is one simple circuit with coefficients +-1, and its deck
orbit is the rotation class of its step labels.

The walks are searched up to a larger group, in the manner of isomorph-free
generation (McKay, J. Algorithms 26, 1998): one walk per orbit, the least
rotation of the least image, with the deck orbits of its images listed
beside it.  The group holds the reversal z -> -z, on every skeleton, and on
a presentation complex each signed permutation of the generators that maps
the relators onto themselves up to cyclic permutation and inversion, as
the presentation lists them (`Presentation.symmetries`).  Such a
permutation is an automorphism of the presented group (it keeps the
normal closure of the relators) that carries relator cells to relator cells
up to sign, so it is a cellular automorphism of the cover.  Boundaries
commute with automorphisms and with z -> -z, both preserve norms, and both
are invertible, so they map the least fillings of z onto those of its
image: every cycle of an orbit has one filling volume.  An oracle whose
group may be a quotient (`presents_group` false: a finite table) gets the
reversal alone, as does a presentation past the caps of its symmetry search.
The walk kept for an orbit is its own least rotation, a necklace of step
labels, and every prefix of a necklace is a prenecklace.  So the search
grows only prenecklace prefixes, tested in O(1) a step as Fredricksen,
Kessler and Maiorana generate them, and loses no orbit: a prefix that is no
prenecklace starts no kept walk.
A walk carries the oracle's state of its vertex (`WordOracle.step`), not
its vertex word, so that with normal forms it meets a vertex again without
asking the oracle.

Chains, and cycles of dimension 2 and up, grow one unit at a time from
single-cell seeds: a unit may raise the magnitude of a coefficient already
present (same sign), or sit on a new cell provided its boundary strictly
cancels part of the current boundary.  Disconnected intermediates are kept
while growing; connectivity is filtered at output.  One function,
`reachable_chains`, runs this rule a norm level at a time, carrying each
chain's boundary and its norm, which every unit changes by a delta.  The
boundary only decides the moves and whether a chain is a cycle, and is
never returned.

The loop runs over one engine for every oracle.  It interns each group
element as an integer id, memoizes composition, and names an orbit by a
translation-invariant signature.  `_Elements` settles the ids: a word's
normal form when the oracle has them; otherwise its exact spelling, and
then `same_element` among the words that share its oracle state, so an
Undecided verdict stops the enumeration with OracleUndecidedError.

The engine, the grower and the walks read the incidences the skeleton
builds once: `SkeletonSpec.cofaces`, `unit_norms` and `edge_steps`.
"""

from __future__ import annotations

from functools import partial

from .errors import BudgetExceededError, InputError
from .skeleton import (
    Chain,
    _Elements,
    _canonical_chain,
    identity_word,
    is_connected,
)
from .words import (
    Word,
    compose,
    free_reduce,
    invert,
    same_element,
    word_key,
)


# --------------------------------------------------------------- chain engine

class _IdEngine:
    """Chains as sorted ((base, word id), coeff) tuples; one id per group
    element, across all bases, as `_Elements` identifies them."""

    def __init__(self, s, oracle, dim: int):
        self.oracle = oracle
        self.elements = _Elements(oracle)
        self.dim = dim
        self.words = []
        self.ids = {}
        self._compose = {}
        self._invert = {}
        self._unit_bnd = {}
        self._cob = {}
        self.seen = set()
        self.e = self.intern(identity_word(s.presentation.generators))
        self.base_bnd = [tuple((bc.base, self.intern(bc.word), n) for bc, n in bnd.terms)
                         for bnd in s.boundaries[dim]]
        # the cofaces' words are the boundary words above, so each is a hit
        self.cofaces = [tuple((upper, self.intern(h)) for upper, h, _ in terms)
                        for terms in s.cofaces[dim - 1]]

    def intern(self, word) -> int:
        w = self.elements.rep(0, word)
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
            for upper, hwid in self.cofaces[bbase]:
                found[(upper, self.compose(bwid, self.invert(hwid)))] = None
            out = tuple(found)
            self._cob[bcell] = out
        return out

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

    def to_chain(self, chain) -> Chain:
        return _canonical_chain(self.dim, [(base, self.words[wid], n)
                                           for (base, wid), n in chain], self.oracle)


# ------------------------------------------------- closed walks (1-cycles)

def _symmetries(s, oracle):
    """Label maps of the signed generator permutations the walks may use,
    identity first: those of `Presentation.symmetries`, but only on a
    presentation complex, where edge i is generator i, and only when the
    oracle's group is the presented one (`presents_group`), whose
    automorphisms these are: a quotient, such as a finite table may
    describe, need not be preserved by them."""
    identity = {(edge, e): (edge, e) for edge in range(s.n_cells(1)) for e in (1, -1)}
    use = oracle.presents_group and s.is_presentation_complex
    perms = s.presentation.symmetries[1:] if use else ()
    return [identity] + [{(x, e): (j, sign * e) for x, (j, sign) in perm.items()
                          for e in (1, -1)} for perm in perms]


def _least_rotation(labels):
    low = min(labels)  # only a rotation that starts at a least label can be least
    return min(labels[i:] + labels[:i] for i, x in enumerate(labels) if x == low)


def _orbit_images(labels, maps):
    """The least rotations of the images of a closed walk under the maps and
    reversal, sorted: one per translation orbit of its symmetry orbit.  None
    as soon as a rotation of one is below the labels.

    The labels are a necklace, their own least rotation, and no image of a
    label is below the first (the walk search's cut), so only a rotation
    that starts at a label equal to the first can be below the labels: just
    those are compared, as slices of the doubled image.  The least rotations
    are taken, and sorted, only for a walk that is kept."""
    n, first = len(labels), labels[0]
    back = tuple((edge, -e) for edge, e in reversed(labels))
    images = []
    for g in maps:
        for w in (labels, back):
            image = tuple(map(g.__getitem__, w))
            twice = image + image
            for i, x in enumerate(image):
                if x == first and twice[i:i + n] < labels:
                    return None
            images.append(image)
    return tuple(sorted({_least_rotation(image) for image in images}))


def _walk_chain(s, oracle, labels) -> Chain:
    """The 1-cycle of the closed walk with these labels from the identity."""
    p = identity_word(s.presentation.generators)
    cells = []
    for edge, sign in labels:
        _, _, w, off = s.edge_steps[(edge, sign)]
        cells.append((edge, compose(p, off), sign))
        p = compose(p, w)
    return _canonical_chain(1, cells, oracle)


def _closed_walks(s, oracle, max_norm: int, node_cap: int | None = None):
    """Connected 1-cycles up to the symmetries, as simple closed walks.

    A walk ends at the first vertex it meets again.  It is kept when that
    is its start and its labels are least among the least rotations of its
    images (`_orbit_images`).  A step is cut when the label, or its reverse,
    has an image below the walk's first label, and when a permutation that
    fixes the labels so far maps the label lower: either way some rotated
    image is smaller.

    A kept walk is its own least rotation, a necklace, and every prefix of a
    necklace is a prenecklace, so a step that makes the labels no
    prenecklace is cut too, and with it every walk it would lead to, none of
    them kept.  The test is that of Fredricksen, Kessler and Maiorana
    (Ruskey, Savage and Wang, J. Algorithms 13, 1992; Cattell et al., J.
    Algorithms 37, 2000): with p the period of the prenecklace labels[:n],
    the labels stay a prenecklace under a label x exactly when x is not
    below labels[n - p], and the period stays p when x equals it and
    becomes n + 1 when x is above.  A prenecklace of length n is a necklace
    exactly when p divides n, so only such closed walks are compared with
    their images.  The node cap counts these prenecklace prefixes.

    A vertex is (base vertex, oracle state), the state carried step by step
    (`WordOracle.step`).  With normal forms equal states are one element, so
    a vertex is met again by a dict lookup.  Otherwise the state is only a
    key, and the walk keeps only the positions at which it had each key: an
    equal key is the vertex at position i exactly when the word read since
    then, the step words of labels[i:] freely reduced, is trivial.

    Returns {n: [images, ...]}, images as `_orbit_images` gives them; the
    first, the walk itself, is the orbit's representative.
    """
    steps = s.edge_steps
    maps = _symmetries(s, oracle)
    exact = oracle.has_normal_forms
    moves = {}  # vertex -> [(label, next vertex, step word)]
    for label, (a, b, w, _) in steps.items():
        moves.setdefault(a, []).append((label, b, w))
    reverse = {x: (x[0], -x[1]) for x in steps}
    low = {x: min(g[y] for g in maps for y in (x, reverse[x])) for x in steps}
    # closing cut: the word norm is subadditive and a step moves it by at
    # most `reach`, so a state of norm above reach * (steps left) cannot close
    reach = max((oracle.word_norm(oracle.step(oracle.start(), w))
                 for _, _, w, _ in steps.values()), default=0)
    need = {}  # state -> the steps it needs to close, memoized
    out = {n: [] for n in range(1, max_norm + 1)}
    labels = []
    path = {}  # (vertex, state) -> [position]
    expanded = deepest = 0
    e = identity_word(s.presentation.generators)

    def closes(i):
        """Whether the word read since position i, freely reduced, is trivial."""
        since = (x for label in labels[i:] for x in steps[label][2].letters)
        return same_element(oracle, e, free_reduce(Word(e.gens, tuple(since))))

    def extend(v, state, tied, p):
        # labels is a prenecklace of period p; tied holds the maps fixing it
        nonlocal expanded, deepest
        expanded += 1
        n = len(labels)
        deepest = max(deepest, n)
        if node_cap is not None and expanded > node_cap:
            raise BudgetExceededError(
                f"cycle enumeration expanded more than {node_cap} walks, "
                f"reaching walk length {deepest} of {max_norm}")
        if n:
            first, ref, back = labels[0], labels[n - p], reverse[labels[-1]]
        for label, nv, w in moves.get(v, ()):
            if n:
                if label < ref or label == back or low[label] < first:
                    continue
            elif low[label] < label:
                continue
            if tied and any(g[label] < label for g in tied):
                continue
            key = (nv, oracle.step(state, w))
            labels.append(label)
            entries = path.get(key)
            if not entries:
                at = None
            elif exact:
                at = entries[0]
            else:
                at = next((i for i in entries if closes(i)), None)
            q = p if n and label == ref else n + 1
            if at == 0:
                if not (n + 1) % q:
                    images = _orbit_images(tuple(labels), maps)
                    if images is not None:
                        out[n + 1].append(images)
            elif at is None and n + 1 < max_norm:
                left = need.get(key[1])
                if left is None:
                    left = need[key[1]] = -(-oracle.word_norm(key[1]) // reach) if reach else 0
                if left < max_norm - n:
                    if entries is None:
                        entries = path[key] = []
                    entries.append(n + 1)
                    extend(nv, key[1], [g for g in tied if g[label] == label] if tied else tied, q)
                    entries.pop()
                    if not entries:
                        del path[key]
            labels.pop()

    for v in sorted(moves) if max_norm > 0 else ():
        state = oracle.start()
        path.clear()
        path[(v, state)] = [0]
        extend(v, state, maps[1:], 0)
    return {n: sorted(orbits) for n, orbits in out.items()}


# ----------------------------------------------------------------- public API

def _chain_sort_key(a: Chain):
    return tuple((c.base, word_key(c.word), n) for c, n in a.terms)


def reachable_chains(s, oracle, dim: int, max_norm: int,
                     node_cap: int | None = None, cycle_target: bool = False):
    """All chains the growth procedure reaches, one per orbit, by norm.

    Returns dict n -> sorted chains of norm n, for n = 1 .. max_norm.  With
    cycle_target only the cycles are returned, and chains whose boundary
    norm exceeds what the units left can cancel are dropped while growing.
    """
    if dim < 1 or dim > s.q:
        raise InputError(f"enumeration dimension {dim} outside 1..{s.q}")
    eng = _IdEngine(s, oracle, dim)
    beta = s.unit_norms[dim]
    frontier = []
    for base in range(s.n_cells(dim)):
        for sign in (1, -1):
            chain = (((base, eng.e), sign),)
            bnd = {cell: n * sign for cell, n in eng.unit_boundary(base, eng.e)}
            if eng.is_new(chain):
                frontier.append((chain, bnd, sum(map(abs, bnd.values()))))
    out = {}
    processed = 0
    for n in range(1, max_norm + 1):
        if cycle_target:
            frontier = [f for f in frontier if f[2] <= beta * (max_norm - n)]
        out[n] = sorted((eng.to_chain(chain) for chain, _, bnorm in frontier
                         if not cycle_target or bnorm == 0), key=_chain_sort_key)
        if n == max_norm:
            break
        eng.seen.clear()  # every chain grown next has norm n + 1
        nxt = []
        for chain, bnd, bnorm in frontier:
            processed += 1
            if node_cap is not None and processed > node_cap:
                raise BudgetExceededError(
                    f"chain enumeration expanded more than {node_cap} chains, "
                    f"reaching norm {n} of {max_norm}")
            # the moves: each support cell in the sign it has, and each cell
            # off the support that touches the boundary, in both signs
            support = dict(chain)
            moves = {(cell, 1 if c > 0 else -1): True for cell, c in chain}
            for bcell in bnd:
                for cell in eng.adjacent_cells(bcell):
                    if cell not in support:
                        moves[(cell, 1)] = moves[(cell, -1)] = False
            for (cell, sign), on_support in sorted(moves.items()):
                # the change the unit makes in the boundary norm, and its own
                unit = eng.unit_boundary(*cell)
                delta = unit_norm = 0
                for bcell, c in unit:
                    c *= sign
                    unit_norm += abs(c)
                    old = bnd.get(bcell, 0)
                    delta += abs(old + c) - abs(old)
                if not on_support and delta >= unit_norm:
                    continue
                if cycle_target and bnorm + delta > beta * (max_norm - n - 1):
                    continue
                grown = tuple(sorted({**support, cell: support.get(cell, 0) + sign}.items()))
                if eng.is_new(grown):
                    grown_bnd = dict(bnd)
                    for bcell, c in unit:
                        v = grown_bnd.get(bcell, 0) + c * sign
                        if v:
                            grown_bnd[bcell] = v
                        else:
                            del grown_bnd[bcell]
                    nxt.append((grown, grown_bnd, bnorm + delta))
        frontier = nxt
    return out


def connected_chains_up_to_action(s, oracle, dim: int, max_norm: int,
                                  node_cap: int | None = None):
    """Connected chains up to translation, as dict norm -> representatives."""
    reached = reachable_chains(s, oracle, dim, max_norm, node_cap=node_cap)
    return {n: [a for a in chains if is_connected(a, s, oracle)]
            for n, chains in reached.items()}


def cycle_orbits(s, oracle, dim: int, max_norm: int, node_cap: int | None = None):
    """Connected cycles one per orbit of the symmetries, as dict norm ->
    [(representative, translates, labels)].

    translates() lists the orbit's translation orbits, one chain each, the
    representative first.  In dimension 1 the symmetries are those of
    `_closed_walks`, and labels[i] are the step labels of the closed walk
    from the identity whose cycle is translates()[i]; above it, translations
    only, and labels is None.
    """
    if dim != 1:
        reached = reachable_chains(s, oracle, dim, max_norm,
                                   node_cap=node_cap, cycle_target=True)
        return {n: [(a, partial(list, (a,)), None) for a in chains
                    if is_connected(a, s, oracle)]
                for n, chains in reached.items()}
    def orbit(images):
        rep = _walk_chain(s, oracle, images[0])
        return rep, lambda: [rep] + [_walk_chain(s, oracle, t) for t in images[1:]], images

    return {n: [orbit(images) for images in walks]
            for n, walks in _closed_walks(s, oracle, max_norm, node_cap).items()}


def connected_cycles_up_to_action(s, oracle, dim: int, max_norm: int,
                                  node_cap: int | None = None):
    """Connected cycles up to translation, as dict norm -> representatives."""
    return {n: sorted((a for _, translates, _ in orbits for a in translates()),
                      key=_chain_sort_key)
            for n, orbits in cycle_orbits(s, oracle, dim, max_norm, node_cap).items()}
