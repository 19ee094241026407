"""Filling volumes and isoperimetric profiles.

Unique fillings.  When the complex is the presentation complex of one
cyclically reduced relator r that is not a proper power, the complex is
aspherical (Lyndon's identity theorem, Ann. of Math. 52, 1950): the
boundary map is injective on finite 2-chains of the cover, so every 1-cycle
has exactly one filling and that filling is the least.  The presentation
answers the gate (`Presentation.aspherical`) and the skeleton whether it is
the presentation complex (`SkeletonSpec.is_presentation_complex`), each
once; every call asks the oracle whether its group is the presented one
rather than a quotient (`presents_group`; a finite table may be one), so
that the complex is the universal cover.  Inside it the filling is derived
without search, in the manner of Dehn's algorithm (Lyndon-Schupp,
Combinatorial Group Theory, V): the cycle splits into closed walks of the
Cayley graph along the skeleton's edge steps (`SkeletonSpec.edge_steps`),
a split that is also the check that it is a cycle, and each walk label is
rewritten to the empty word by rules p -> q^-1, one for each cyclic form
p q of r or r^-1 with p longer than q, or as long with q^-1
shortlex-smaller: the presentation's `RelatorRules`, whose one table
and one rewrite loop the bounded-bfs oracle's Dehn path uses too.  Each
step adds one relator cell at the current prefix and lowers the word in
shortlex order.  The longer-half rules decide C'(1/6) groups such as the
genus-two surface; the half rules sort grid words.  The rules are not
complete for every one-relator group: a walk they leave nonempty sends the
cycle to the search.

The filling search runs iterative deepening on the filling norm v.  A
q-chain of norm v is a sum of v signed unit cells, so FV(z) is the least
number of signed unit cells whose boundaries sum to z (Gersten's l1 view of
Dehn functions, MSRI Publ. 23, 1992).  A node holds the part t of the cycle
still to fill and the number rem of units left.  It is cut when the norm of
t exceeds rem times beta, the largest norm of a cell's boundary
(`SkeletonSpec.unit_norms`); otherwise it takes the least cell x of t, with
coefficient c, and branches only on the cells tau above x, with coefficient
k in the coboundary of x (a lookup in `SkeletonSpec.cofaces`), adding the
unit sign(c k) tau.  This covers every filling: t_x is the sum of the
contributions [boundary of tau : x] of the units of any filling x' of t, so
some unit of x' contributes with the sign of c, and removing it leaves a
filling of the rest of norm rem - 1.  Witnesses are re-verified against the
boundary operator before anything is returned.

Profiles: psi(n) maximizes filling volume over connected cycles of norm at
most n; phi(n) maximizes the sum of psi over partitions of n, computed by
the standard recurrence.  psi_table fills each enumerated 1-cycle from the
walk that built it, by the route step `minimal_filling` ends in, and a
stored witness is re-checked to be connected by `is_connected`, in linear
time for a 1-cycle.  Finite presentations backed by a multiplication
table use the exact finite sweep instead; the two routes, and the reload of
their cached tables, refuse each other's oracles (`_check_route`).

Stored answers.  The cache keeps what `fv_entry` and the profile routes
write, and reuses it only after `verify_fv_entry` or `verify_profile_entry`
re-checks each witness.  A filling that passes proves FV(cycle) <= value.
Inside Lyndon's gate, with an oracle for the presented group itself (not a
finite table, which may be a quotient), the filling is unique, so a
passing fv witness is exact there.  A passing psi witness of size k is a
connected (q-1)-cycle of norm at most k with a filling of norm values[k]:
inside the gate that proves psi(k) >= values[k].  That no connected cycle
does better, and every minimality outside the gate, rests on the run that
wrote the entry.

The exact finite sweep.  The cover of a finite presentation is finite, and
norm and FV are invariant under G x {+-1}: left translation by the table
and z -> -z.  The cycles of norm at most n are listed one per orbit, the
least (as sorted tuples) of its 2|G| images, by a depth-first search over
the (q-1)-cells in element-major order whose cuts drop only branches
without a least cycle (isomorph-free generation, McKay, J. Algorithms 26,
1998):
- norm: a unit of coefficient moves the boundary norm by at most beta, the
  largest norm of a cell's boundary, so the partial boundary t has norm at
  most beta times the norm left;
- forced: once the last cell incident to a face is set the face is final,
  so that cell takes the one coefficient zeroing all the faces it closes
  (0 leaves it out), and none if they disagree;
- interval: |t| + sum_f (|t_f + c d_f| - |t_f|) + beta |c| <= beta * left
  has a convex left side that holds at c = 0, so the passing c of each
  sign run from +-1 and each sign's scan stops at its first failure;
- orbit: moving a cell to element 0 and negating shows a least cycle
  starts at element 0 with a negative coefficient; for e > 0 the image
  moving e to 0 starts with +-(block of e) where the cycle starts with
  block 0, both followed by other elements' cells, so once either sign
  compares below block 0 (a proper prefix counting larger), which no later
  cell can undo, that image is smaller for every cycle below: the step is
  cut.  The comparison is carried down the search as state.
Of a cycle found only the images moving to 0 an element x with
+-(block of x) = block 0 can tie or beat it, the rest starting above; it
is kept if none is smaller, and its orbit size is 2|G| over its
stabilizer, the images among them equal to it.  Norm and FV are constant
on orbits, and the least cycle of a union of orbits is the least of their
least cycles, so the least (norm, cycle) of largest FV, the witness, is a
representative.

A q-chain x is a sum of |x|_1 signed unit cells, so FV(z) is the word
length of z in the lattice of boundaries over the steps +-(boundary of a
cell), Gersten's l1 view of Dehn functions (MSRI Publ. 23, 1992): a
breadth-first search from 0 over distinct boundary vectors first reaches z
at depth exactly FV(z).  The sweep searches from both ends (Pohl,
Bi-directional search, Machine Intelligence 6, 1971): each round it grows
the side that costs less to expand, level v + 1 from 0 or layer r + 1 of
every cycle still pending, a layer of y being the vectors at one distance
from y.  A pending y is at distance more than v + r, so every least path to
y crosses level v, and FV(y) = v + k for the least k whose layer of y meets
level v; since y's layers up to r miss level v, it is enough to test each
new layer against level v and the last layers against each new level.  A
least filling is rebuilt by walking from y to 0 along least paths, down y's
layers and then down the levels.  Each vector is one int, coordinate i in a
signed digit of w bits.  Every vector compared is within cap steps of 0 or
of a cycle, so its coordinates have size at most n + cap * c_max, with cap
the fill volume cap and c_max the largest coefficient of a cell's boundary;
w is the least width with 2^(w-1) above that bound, so distinct vectors
have distinct ints and adding ints adds vectors.
"""

from __future__ import annotations

import logging

from .enumeration import _chain_sort_key, cycle_orbits
from .errors import (
    BudgetExceededError,
    ChainProfileError,
    InputError,
    WrongAlgorithmError,
)
from .skeleton import (
    Chain,
    _boundary_terms,
    _canonical_chain,
    _cells,
    _stored_cell,
    boundary,
    chain_from_json,
    chain_to_json,
    coboundary,
    identity_word,
    is_connected,
    norm,
    skeleton_fingerprint,
    zero_chain,
)
from .words import Word, _Frozen, _is_count, _is_int, compose, invert

logger = logging.getLogger(__name__)


class Budget(_Frozen):
    """Caps for the exhaustive parts of the computation.  The class
    attributes are the defaults; a cap that is not an integer, or below
    0 (`fill_volume_cap`) or 1 (`node_cap`), raises InputError."""
    _fields = ("fill_volume_cap", "node_cap")
    fill_volume_cap = 24
    node_cap = 1_000_000

    def __init__(self, fill_volume_cap: int = fill_volume_cap, node_cap: int = node_cap):
        for name, cap, least in (("fill_volume_cap", fill_volume_cap, 0),
                                 ("node_cap", node_cap, 1)):
            if not _is_count(cap, least):
                raise InputError(f"{name} must be an integer >= {least}, got {cap!r}")
        object.__setattr__(self, "fill_volume_cap", fill_volume_cap)
        object.__setattr__(self, "node_cap", node_cap)

    def to_json_dict(self) -> dict:
        return {"fill_volume_cap": self.fill_volume_cap, "node_cap": self.node_cap}


class ProfileTable(_Frozen):
    """Values 0..n of one profile plus the certificates that produced them."""
    __slots__ = _fields = ("kind", "fingerprint", "budget", "values", "witnesses")

    def __init__(self, kind: str, fingerprint: str, budget: dict, values: list,
                 witnesses: list | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "fingerprint", fingerprint)
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "witnesses", [] if witnesses is None else witnesses)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "fingerprint": self.fingerprint,
                "budget": self.budget, "values": self.values,
                "witnesses": self.witnesses}


# ------------------------------------------------------------- filling search

def minimal_filling(cycle: Chain, s, oracle, budget: Budget | None = None) -> Chain:
    """A filling of least norm: T one dimension up with boundary the cycle.

    The chain is checked to be a cycle: a 1-chain as it is split into the
    closed walks the rewriting reads (`_cycle_walks`), so it is read once, a
    chain above by its boundary, and a 0-chain by its coefficient sum.
    `_filling` routes it.
    """
    budget = budget or Budget()
    dim = cycle.dim + 1
    if dim > s.q:
        raise InputError(f"cycles of dimension {cycle.dim} have no fillings "
                         f"in a {s.q}-dimensional complex")
    walks = _cycle_walks(cycle, s, oracle) if cycle.dim == 1 else None
    if cycle.dim > 1 and boundary(cycle, s, oracle).terms:
        raise InputError("filling target is not a cycle")
    excess = sum(n for _, n in cycle.terms) if cycle.dim == 0 else 0
    if excess:
        raise InputError(f"the coefficients of this 0-chain sum to {excess}, not 0 "
                         f"as on every boundary, so it has no filling")
    if not cycle.terms:
        return zero_chain(dim)
    return _filling(cycle, s, oracle, budget, walks)


def _filling(cycle: Chain, s, oracle, budget: Budget, walks) -> Chain:
    """The least filling of a nonzero cycle, given with its closed walks
    when it is a 1-cycle (None otherwise).

    The routes only produce: rewriting answers inside Lyndon's gate, and the
    search what it leaves.  Whichever answered, the filling is checked
    against the cycle and the fill volume cap here.
    """
    total = None if walks is None else _rewritten_filling(walks, s, oracle, budget)
    if total is None:
        total = _search_filling(cycle, s, oracle, budget)
    _check_filling(total, cycle, s, oracle)
    if norm(total) > budget.fill_volume_cap:
        raise BudgetExceededError(
            f"the unique filling has norm {norm(total)}, above the fill "
            f"volume cap {budget.fill_volume_cap}")
    return total


def _check_filling(total: Chain, cycle: Chain, s, oracle):
    """Refuse (ChainProfileError) a filling whose boundary is not the
    cycle: the boundary terms of total less those of cycle, built as one
    chain, must cancel."""
    terms = _boundary_terms(total, s) + [(c.base, c.word, -n) for c, n in cycle.terms]
    if total.dim - 1 != cycle.dim or _canonical_chain(cycle.dim, terms, oracle).terms:
        raise ChainProfileError("filling witness failed verification")


def _search_filling(cycle: Chain, s, oracle, budget: Budget | None = None) -> Chain:
    """Least filling of a nonzero cycle by iterative deepening on its norm."""
    budget = budget or Budget()
    dim = cycle.dim + 1
    beta = s.unit_norms[dim]
    if beta == 0:
        raise InputError("no cells available one dimension up")
    bnds = s.boundaries[dim]
    nodes = 0

    def search(target, rem, v):
        # some unit of every filling of norm rem has the sign of target's
        # least cell x there: branch on the cells above x
        nonlocal nodes
        nodes += 1
        if nodes > budget.node_cap:
            raise BudgetExceededError(
                f"filling search expanded more than {budget.node_cap} nodes, "
                f"reaching filling norm {v}")
        if not target.terms:
            return []
        if norm(target) > rem * beta:
            return None
        x, c = target.terms[0]
        own = [(cell.base, cell.word, n) for cell, n in target.terms]
        for tau, k in coboundary(x, s, oracle).terms:
            sign = 1 if c * k > 0 else -1
            # the target less sign times the translated boundary of tau
            child = own + [(bc.base, compose(tau.word, bc.word), -sign * bn)
                           for bc, bn in bnds[tau.base].terms]
            tail = search(_canonical_chain(dim - 1, child, oracle), rem - 1, v)
            if tail is not None:
                return [(tau, sign)] + tail
        return None

    low = max(1, -(-norm(cycle) // beta))
    for v in range(low, budget.fill_volume_cap + 1):
        found = search(cycle, v, v)
        if found is not None:
            return _canonical_chain(dim, [(tau.base, tau.word, sign)
                                          for tau, sign in found], oracle)
    raise BudgetExceededError(
        f"no filling of norm at most {budget.fill_volume_cap} found")


# ------------------------------------------------ unique fillings by rewriting

def _rewritten_filling(walks, s, oracle, budget: Budget):
    """The filling of a 1-cycle summed from relator rewriting of its closed
    walks, as `_cycle_walks` gives them, or None.

    None outside Lyndon's gate (module docstring).  Each walk label is
    rewritten to the empty word: applying p -> q^-1 at prefix u of a walk
    from x adds sign times the relator cell at x u offset, and free
    reductions add nothing.  Every step lowers the word in shortlex order,
    so this ends; a walk left nonempty gives None.
    """
    p = s.presentation
    if not (oracle.presents_group and p.aspherical and s.is_presentation_complex):
        return None
    gens = p.generators
    steps = 0
    cells = []
    for start, w in walks:
        for step in p.rules.rewrite(w):
            if step is None:
                return None
            steps += 1
            if steps > budget.node_cap:
                raise BudgetExceededError(
                    f"filling rewriting took more than {budget.node_cap} steps")
            prefix, (_, base, sign, offset) = step
            at = compose(Word(gens, prefix), Word(gens, offset))
            cells.append((base, compose(start, at), sign))
    return _canonical_chain(2, cells, oracle)


def _cycle_walks(cycle: Chain, s, oracle) -> list:
    """The closed walks (start vertex word, letters) that a 1-chain splits
    into along its arcs, or InputError when it is not a cycle.

    Each edge is traversed |c| times by its step (`SkeletonSpec.edge_steps`)
    in the sign of its coefficient c; a vertex is (base, letters) of the word
    the oracle matches its own to.  A walk from v takes arcs until it is back
    at v.  Some walk is stuck at a vertex with no arc left exactly when some
    vertex has more arcs in than out, or fewer, that is when the boundary is
    not 0.  The labels are freely reduced: stepping back along an edge would
    need a coefficient of the other sign on it.
    """
    traversals = []
    for c, n in cycle.terms:
        a, b, w, off = s.edge_steps[(c.base, 1 if n > 0 else -1)]
        start = compose(c.word, invert(off))
        traversals.append(((a, start), (b, compose(start, w)), w.letters, abs(n)))
    spelled, _ = _cells(((v, w, 1) for t in traversals for v, w in t[:2]), oracle)
    vertex = {key: (base, w.letters) for key, (base, _, w, _) in spelled.items()}
    arcs: dict[tuple, list] = {}
    for *ends, label, k in traversals:
        a, b = (vertex[(v, w.letters)] for v, w in ends)
        arcs.setdefault(a, []).extend([(b, label)] * k)
    walks = []
    for v, out in arcs.items():
        while out:
            letters, u = [], v
            while True:
                if not arcs.get(u):
                    raise InputError("filling target is not a cycle")
                u, label = arcs[u].pop()
                letters += label
                if u == v:
                    break
            walks.append((Word(s.presentation.generators, v[1]), tuple(letters)))
    return walks


def _label_walks(s, labels):
    """The closed walk with these step labels from the identity, as
    `_cycle_walks` gives the walks of its cycle."""
    letters = tuple(x for label in labels for x in s.edge_steps[label][2].letters)
    return [(identity_word(s.presentation.generators), letters)]


def filling_volume(cycle: Chain, s, oracle, budget: Budget | None = None) -> int:
    return norm(minimal_filling(cycle, s, oracle, budget=budget))


# ------------------------------------------------------- psi and phi profiles

# psi_table's fill, with its skeleton and oracle, set around the fork:
# Pool.map sends the task by name, so workers reach the inherited fill
# through this module
_FORKED_FILL = None


def _forked_fill(task) -> Chain:
    return _FORKED_FILL(*task)


def _check_route(kind: str, oracle):
    """Refuse (WrongAlgorithmError) an oracle the profile route "psi" or
    "finite" does not take: the exact finite sweep takes exactly the
    finite-table oracles, and the enumeration profiles every other oracle."""
    if (oracle.kind == "finite-table") != (kind == "finite"):
        raise WrongAlgorithmError({
            "psi": "the cover of a finite presentation is finite; use the exact "
                   "finite profile instead of the enumeration profiles",
            "finite": "the exact finite profile needs a finite-table oracle"}[kind])


def psi_table(s, oracle, n: int, budget: Budget | None = None,
              workers: int = 1) -> ProfileTable:
    """psi(k) for k = 0..n: largest filling volume over connected cycles of
    norm at most k one dimension below the top."""
    _check_route("psi", oracle)
    budget = budget or Budget()
    if not _is_count(n, 0):
        raise InputError(f"profile length must be an integer >= 0, got {n!r}")
    if not _is_count(workers, 1):
        raise InputError(f"workers must be an integer >= 1, got {workers!r}")
    dim = s.q - 1
    orbits = cycle_orbits(s, oracle, dim, n, node_cap=budget.node_cap) if n else {}
    flat = [(k, rep, translates, labels) for k in sorted(orbits)
            for rep, translates, labels in orbits[k]]

    def fill(a, labels):
        # a cycle grown by the enumeration needs no check that it is one,
        # and a 1-cycle is filled from the walk that built it
        return _filling(a, s, oracle, budget, labels and _label_walks(s, labels))

    tasks = [(a, labels and labels[0]) for _, a, _, labels in flat]
    if workers > 1 and len(flat) > 1:
        from multiprocessing import get_context  # ~10 ms: not at import time
        global _FORKED_FILL
        _FORKED_FILL = fill
        try:
            with get_context("fork").Pool(workers) as p:
                fillings = p.map(_forked_fill, tasks)
        finally:
            _FORKED_FILL = None
    else:
        fillings = [fill(*task) for task in tasks]
    volumes = [norm(f) for f in fillings]
    values, holders = _running_max([(flat[i][0], v, i) for i, v in enumerate(volumes)], n)
    # the cycles of an orbit share one filling volume; a record's witness is
    # the least cycle among the orbits that reach it at its norm, the one
    # filling every translation orbit would pick
    chosen = {}
    for i in set(holders) - {None}:
        k, v = flat[i][0], volumes[i]
        a, j, t = min(((a, j, t) for j, (kj, _, translates, _) in enumerate(flat)
                       if kj == k and volumes[j] == v for t, a in enumerate(translates())),
                      key=lambda ajt: _chain_sort_key(ajt[0]))
        labels = flat[j][3]
        chosen[i] = {"cycle": chain_to_json(a, s),
                     "filling": chain_to_json(fillings[j] if t == 0 else
                                              fill(a, labels and labels[t]), s)}
    witnesses = [None if i is None else chosen[i] for i in holders]
    return ProfileTable("psi", skeleton_fingerprint(s, oracle),
                        budget.to_json_dict(), values, witnesses)


def _psi_witness(wit, s, oracle):
    """(cycle norm, filling norm) of a stored psi witness that holds what
    psi_table writes, a connected (q-1)-cycle and a filling of it; raises
    ChainProfileError when it does not."""
    cyc = _stored_chain(wit["cycle"], s, oracle)
    fill = _stored_chain(wit["filling"], s, oracle)
    _check_filling(fill, cyc, s, oracle)
    if cyc.dim != s.q - 1 or not is_connected(cyc, s, oracle):
        raise ChainProfileError("psi witness cycle is not a connected (q-1)-cycle")
    return norm(cyc), norm(fill)


def _running_max(items, n: int):
    """For sizes k = 0..n, the largest value over the (size, value, holder)
    items of size at most k, and the first holder to reach it (None while it
    is 0): (values, holders)."""
    values, holders = [0] * (n + 1), [None] * (n + 1)
    for size, value, holder in items:
        for k in range(size, n + 1):
            if value <= values[k]:
                break
            values[k], holders[k] = value, holder
    return values, holders


def _partition_recurrence(delta):
    """phi[j] = max over 1 <= k <= j of delta[k] + phi[j - k], phi[0] = 0."""
    n = len(delta) - 1
    phi = [0] * (n + 1)
    choice = [0] * (n + 1)
    for j in range(1, n + 1):
        best, arg = None, 0
        for k in range(1, j + 1):
            v = delta[k] + phi[j - k]
            if best is None or v > best:
                best, arg = v, k
        phi[j] = best
        choice[j] = arg
    return phi, choice


def _partition_of(choice, j):
    out = []
    while j > 0:
        out.append(choice[j])
        j -= choice[j]
    return sorted(out, reverse=True)


def phi_table(s, oracle, n: int, budget: Budget | None = None,
              psi: ProfileTable | None = None) -> ProfileTable:
    """phi(k) for k = 0..n via the partition recurrence over psi."""
    if not _is_count(n, 0):
        raise InputError(f"profile length must be an integer >= 0, got {n!r}")
    if psi is None:
        psi = psi_table(s, oracle, n, budget=budget)
    elif psi.kind != "psi" or len(psi.values) != n + 1:
        raise InputError("phi needs a psi table of matching length")
    elif psi.fingerprint != skeleton_fingerprint(s, oracle):
        raise InputError("phi needs a psi table of the same complex and oracle")
    values, choice = _partition_recurrence(psi.values)
    witnesses = [None] * (n + 1)
    for k in range(1, n + 1):
        witnesses[k] = {"partition": _partition_of(choice, k),
                        "psi": [psi.values[p] for p in _partition_of(choice, k)]}
    return ProfileTable("phi", psi.fingerprint, psi.budget, values, witnesses)


# ------------------------------------------------------- exact finite profile

def _finite_cells(s, oracle, dim):
    return [(e, base) for e in range(len(oracle.elements))
            for base in range(s.n_cells(dim))]


def _finite_unit_boundary(s, oracle, dim, elem, base):
    out = {}
    for bc, c in s.boundary_chain(dim, base).terms:
        key = (oracle.step(elem, bc.word), bc.base)
        out[key] = out.get(key, 0) + c
        if not out[key]:
            del out[key]
    return out


def _check_finite_filling(fill: dict, cycle: dict, s, oracle):
    """Raise ChainProfileError unless the q-chain fill {(element, base): coeff}
    of the finite cover has boundary cycle, in the same form, no zeros."""
    out = {}
    for (elem, base), c in fill.items():
        for cell, b in _finite_unit_boundary(s, oracle, s.q, elem, base).items():
            out[cell] = out.get(cell, 0) + c * b
    if {cell: c for cell, c in out.items() if c} != cycle:
        raise ChainProfileError("finite filling witness failed verification")


def _finite_cycles(s, oracle, n: int, node_cap: int) -> tuple[dict, int]:
    """One cycle per orbit of G x {+-1} among the chains of norm at most n
    with zero boundary on the finite cover, each the least of its images, as
    {sorted ((element, base), coeff) tuple: (norm, orbit size)}, and the
    nodes visited.

    Depth-first over the cells in `_finite_cells` order, choosing the next
    nonzero cell and its coefficient; a step that passes the norm cut
    updates the partial boundary in place and undoes it after, unless one
    sign of its element's block compares below block 0.  Block 0 is the
    first m0 cells.  The orbit cut of the current element e > 0 is the
    state (k, tie): tie is the sign s with s * (block of e) equal to the
    first k cells of block 0, and 0 once both signs compare above; ties
    holds the (x, s) of earlier elements with s * (block of x) = block 0.
    The cuts are argued in the module docstring."""
    dim = s.q - 1
    cells = _finite_cells(s, oracle, dim)
    bases = s.n_cells(dim)
    faces: dict = {}
    bnds = [[(faces.setdefault(f, len(faces)), c)
             for f, c in _finite_unit_boundary(s, oracle, dim, e, b).items()]
            for e, b in cells]
    last = {f: i for i, bnd in enumerate(bnds) for f, _ in bnd}
    closing = [[(f, d) for f, d in bnd if last[f] == i] for i, bnd in enumerate(bnds)]
    beta = max((sum(abs(c) for _, c in bnd) for bnd in bnds), default=0)
    to0 = {row.index(0): row for row in oracle.table}   # the row moving x to 0
    size = 2 * len(to0)
    end = ((0, bases), 0)   # block 0's end mark: a proper prefix compares larger
    vec = [0] * len(faces)
    picked: list = []
    cycles: dict = {}
    nodes = reached = m0 = 0

    def step(j, c, left, bnorm, e, k, tie, ties):
        # visit with c on cell j if the norm and orbit cuts hold; whether the
        # norm cut held
        nonlocal m0
        nb = bnorm
        for f, d in bnds[j]:
            old = vec[f]
            nb += abs(old + c * d) - abs(old)
        if nb > beta * (left - abs(c)):
            return False
        x, b = cell = cells[j]
        if x != e:
            if not e:
                m0 = len(picked)
            elif tie and k == m0:
                ties += ((e, tie),)
            # the sign making the first coefficient negative, as in block 0
            k, tie = 0, -1 if c > 0 else 1
        if x and tie:
            (_, b0), c0 = picked[k] if k < m0 else end
            diff = b - b0 or tie * c - c0
            if diff < 0:
                return True
            if diff:
                tie = 0
            k += 1
        for f, d in bnds[j]:
            vec[f] += c * d
        picked.append((cell, c))
        visit(j + 1, left - abs(c), nb, k, tie, ties)
        picked.pop()
        for f, d in bnds[j]:
            vec[f] -= c * d
        return True

    def visit(i, left, bnorm, k, tie, ties):
        nonlocal nodes, reached
        nodes += 1
        reached = max(reached, n - left)
        if nodes > node_cap:
            raise BudgetExceededError(
                f"finite cycle enumeration passed {node_cap} nodes, with "
                f"partial chains reaching norm {reached} of {n} and "
                f"{len(cycles)} cycle orbits found")
        e = picked[-1][0][0] if picked else 0
        if bnorm == 0:
            key = tuple(picked)
            # the identity fixes a cycle, and with both signs the zero chain
            fixed = 1 if key else size
            for x, sign in ties + ((e, tie),) if tie and k == m0 else ties:
                row = to0[x]
                image = tuple(sorted([((row[y], b), sign * c) for (y, b), c in key]))
                if image < key:
                    break
                fixed += image == key
            else:
                cycles[key] = (n - left, size // fixed)
        if left == 0:
            return
        for j in range(i, len(cells) if picked else bases):
            if closing[j]:
                f, d = closing[j][0]
                c = -vec[f] // d
                for f, d in closing[j]:
                    if vec[f] + c * d:
                        break
                else:
                    if not c:
                        continue
                    step(j, c, left, bnorm, e, k, tie, ties)
                # cell j stays zero from here on, and a closing face with it
                break
            up, down = bool(picked), True
            for mag in range(1, left + 1):
                up = up and step(j, mag, left, bnorm, e, k, tie, ties)
                down = down and step(j, -mag, left, bnorm, e, k, tie, ties)
                if not (up or down):
                    break

    visit(0, n, 0, 0, 0, ())
    return cycles, nodes


def _finite_fillings(s, oracle, cycles: dict, n: int, budget: Budget,
                     nodes: int) -> tuple[dict, object]:
    """FV of every cycle by breadth-first search over boundary vectors, with
    steps +-(boundary of a unit q-cell), from 0 and back from the cycles
    still pending, whichever side is cheaper to grow; returns {cycle: FV}
    and a function that rebuilds a least filling of a cycle as
    {(element, base): coeff}.  `cycles` maps each orbit representative to
    (norm, orbit size)."""
    dim = s.q - 1
    n_faces = s.n_cells(dim)
    fill_cells = _finite_cells(s, oracle, s.q)
    fill_bnds = [_finite_unit_boundary(s, oracle, s.q, e, b) for e, b in fill_cells]
    cap = budget.fill_volume_cap
    c_max = max((abs(c) for bnd in fill_bnds for c in bnd.values()), default=0)
    # a vector is one int, coordinate i in a signed digit of `width` bits;
    # every vector the sweep compares is within `cap` steps of 0 or of a
    # cycle, so its coordinates have size at most n + cap * c_max
    width = (n + cap * c_max).bit_length() + 1

    def encode(items):
        return sum(c << (width * (e * n_faces + base)) for (e, base), c in items)

    steps: dict = {}
    for cell, bnd in zip(fill_cells, fill_bnds):
        d = encode(bnd.items())
        if d:
            steps.setdefault(d, (cell, 1))
            steps.setdefault(-d, (cell, -1))

    def grow(cur, prev, where):
        # the vectors one step from cur that are in neither cur nor prev.
        # They number at least len(new) - len(cur) - len(prev), so a level
        # that will pass the cap stops before it is built
        nonlocal nodes
        new: set = set()
        room = budget.node_cap - nodes + len(cur) + len(prev)
        for x in cur:
            new.update([x + d for d in steps])
            if len(new) > room:
                break
        new -= cur
        new -= prev
        nodes += len(new)
        if nodes > budget.node_cap:
            raise BudgetExceededError(
                f"finite filling sweep passed {budget.node_cap} nodes "
                f"{where}, with {unfilled} cycles unfilled")
        return new

    pending = {encode(key): key for key in cycles}
    fv = {pending.pop(0): 0}    # the zero chain, always a cycle
    met = {(): ((), 0)}         # cycle -> (its layers 1..r-1, the level v met)
    levels = [{0}]              # levels[v]: the vectors at distance v from 0
    r = 0                       # every pending y is at distance > v + r
    # back[y]: an empty set, then the vectors at distance 0..r from y
    back = {y: [set(), {y}] for y in pending}
    while pending:
        v = len(levels) - 1
        depth = v + r + 1
        unfilled = sum(cycles[key][1] for key in pending.values())
        top = levels[-1]
        if depth > cap or not top or not all(b[-1] for b in back.values()):
            raise BudgetExceededError(
                f"some cycles admit no filling of norm at most {cap}: "
                f"{unfilled} cycles unfilled after the finite filling sweep")
        if sum(len(b[-1]) for b in back.values()) < len(top):
            # step back from the pending cycles: y is at distance v + r + 1
            # exactly when its layer r has a step into level v, and otherwise
            # gets layer r + 1
            where = (f"in the backward search at depth {r + 1} from the "
                     f"pending cycles (filling norm {depth})")
            closed, grown = [], 0
            for y, layers in back.items():
                if any(x - d in top for x in layers[-1] for d in steps):
                    closed.append(y)
                else:
                    layers.append(grow(layers[-1], layers[-2], where))
                    grown += len(layers[-1])
            r += 1
            side = f"{grown} new states back from the pending cycles"
        else:
            new = grow(top, levels[-2] if v else set(), f"at level {v + 1}")
            levels.append(new)
            closed = [y for y in pending if not new.isdisjoint(back[y][-1])]
            side = f"{len(new)} new states"
        for y in closed:
            key = pending.pop(y)
            fv[key] = depth
            met[key] = (back.pop(y)[2:r + 1], len(levels) - 1)
        logger.debug("finite filling sweep level %d: %s, %d cycles pending",
                     depth, side, len(pending))

    def filling(key):
        # walk from the cycle down to 0, at each step to the first vector in
        # steps order that lies on a least path: in its layers r - 1 .. 1,
        # those with a step to such a vector of the layer after, then in the
        # levels v .. 0 (v - 1 .. 0 when the cycle is in level v)
        layers, v = met[key]
        on, path = levels[v], []
        for layer in reversed(layers):
            on = {x for x in layer if any(x - d in on for d in steps)}
            path.append(on)
        path.reverse()
        path += [levels[u] for u in range(min(v, fv[key] - 1), -1, -1)]
        x, fill = encode(key), {}
        for below in path:
            for d, (cell, sign) in steps.items():
                if x - d in below:
                    x -= d
                    fill[cell] = fill.get(cell, 0) + sign
                    break
        _check_finite_filling(fill, dict(key), s, oracle)
        return fill

    return fv, filling


def finite_profile(s, oracle, n: int, budget: Budget | None = None) -> ProfileTable:
    """Exact profile for a finite presentation: list the cycles of the finite
    cover up to norm n, then reach each by a breadth-first sweep of boundaries."""
    _check_route("finite", oracle)
    budget = budget or Budget()
    if not _is_count(n, 0):
        raise InputError(f"profile length must be an integer >= 0, got {n!r}")
    cycles, nodes = _finite_cycles(s, oracle, n, budget.node_cap)
    logger.debug("finite cycle enumeration: %d cycles in %d orbits of norm at "
                 "most %d, %d nodes", sum(size for _, size in cycles.values()),
                 len(cycles), n, nodes)
    fv, filling = _finite_fillings(s, oracle, cycles, n, budget, nodes)
    # the least (norm, key) cycle of an orbit is its representative
    by_norm = sorted((size, key) for key, (size, _) in cycles.items())
    values, best_keys = _running_max(((size, fv[key], key) for size, key in by_norm), n)
    fills = {key: sorted(filling(key).items()) for key in set(best_keys) - {None}}
    witnesses = [None if key is None else {
        "cycle": _finite_chain_json(key, s.q - 1, s, oracle),
        "filling": _finite_chain_json(fills[key], s.q, s, oracle),
    } for key in best_keys]
    return ProfileTable("finite", skeleton_fingerprint(s, oracle),
                        budget.to_json_dict(), values, witnesses)


def _finite_chain_json(items, dim, s, oracle) -> list:
    """Stored form of ((element, base cell), coeff) items of the finite cover."""
    return [{"element": oracle.elements[e], "base": s.cell_id(dim, base), "coeff": c}
            for (e, base), c in items]


def _finite_chain(terms, dim, s, oracle) -> dict:
    """Stored cells of the finite cover as {(element, base cell): coeff}."""
    out = {}
    for t in terms:
        coeff = t["coeff"]
        cell = (oracle.elements.index(t["element"]), _stored_cell(s, dim, t["base"], coeff))
        out[cell] = out.get(cell, 0) + coeff
    return {cell: c for cell, c in out.items() if c}


def _finite_witness(wit, s, oracle):
    """(cycle norm, filling norm) of a stored finite witness, as _psi_witness."""
    _exactly(_FINITE_TERM, *wit["cycle"], *wit["filling"])
    cyc = _finite_chain(wit["cycle"], s.q - 1, s, oracle)
    fill = _finite_chain(wit["filling"], s.q, s, oracle)
    _check_finite_filling(fill, cyc, s, oracle)
    return sum(map(abs, cyc.values())), sum(map(abs, fill.values()))


# ------------------------------------------------------------ stored answers

# what a malformed or inconsistent entry raises while it is checked; any
# other exception is a bug in the checks and propagates
_BAD_ENTRY = (ChainProfileError, KeyError, TypeError, ValueError)

# the fields each stored dict is written with; one that holds any other
# field is refused, so nothing the checks do not read comes back as an answer
_FV, _WITNESS, _CHAIN = {"value", "filling"}, {"cycle", "filling"}, {"dim", "terms"}
_TERM, _FINITE_TERM = {"word", "base", "coeff"}, {"element", "base", "coeff"}


def _exactly(fields: set, *stored) -> None:
    """Refuse (ChainProfileError) a stored item that is not a dict of
    exactly these fields."""
    for d in stored:
        if type(d) is not dict or d.keys() != fields:
            raise ChainProfileError(f"stored entry is not a dict of the fields {sorted(fields)}")


def _stored_chain(data, s, oracle) -> Chain:
    """The chain `chain_to_json` wrote as data, holding its fields only."""
    _exactly(_CHAIN, data)
    _exactly(_TERM, *data["terms"])
    return chain_from_json(data, s, oracle)


def fv_entry(cycle: Chain, s, oracle, budget: Budget) -> dict:
    """The stored answer of an fv query: a least filling and its norm."""
    filling = minimal_filling(cycle, s, oracle, budget=budget)
    return {"value": norm(filling), "filling": chain_to_json(filling, s)}


def verify_fv_entry(entry, target, s, oracle) -> bool:
    """Whether a stored fv answer holds a filling of target of norm value."""
    try:
        _exactly(_FV, entry)
        fill = _stored_chain(entry["filling"], s, oracle)
        _check_filling(fill, target, s, oracle)
        return _is_int(entry["value"]) and norm(fill) == entry["value"]
    except _BAD_ENTRY:
        return False


def verify_profile_entry(entry, kind: str, n: int, s, oracle) -> bool:
    """Checks on a stored profile before reuse: its route admits the oracle,
    the witness for size 0 is empty, and the route's check passes the
    witness for size k with a cycle of norm <= k and a filling of values[k]."""
    check = {"psi": _psi_witness, "finite": _finite_witness}.get(kind)
    if check is None:
        return False
    try:
        _check_route(kind, oracle)
        values = entry["values"]
        witnesses = entry["witnesses"]
        if (not isinstance(values, list) or len(values) != n + 1
                or len(witnesses) != n + 1 or witnesses[0] is not None):
            return False
        _check_delta(values)
        for k in range(1, n + 1):
            wit = witnesses[k]
            if wit is None:
                if values[k] != 0:
                    return False
                continue
            if wit != witnesses[k - 1]:  # a record's witness repeats over its sizes
                _exactly(_WITNESS, wit)
                norms = check(wit, s, oracle)
            if norms[0] > k or norms[1] != values[k]:
                return False
        return True
    except _BAD_ENTRY:
        return False


# ------------------------------------------------------------ combined bounds

def _check_delta(delta):
    """The table as a list of nonnegative integers, nondecreasing from 0."""
    vals = list(delta)
    if not vals or vals[0] != 0:
        raise InputError("table must start with value 0 at size 0")
    for v in vals:
        if not _is_int(v) or v < 0:
            raise InputError(f"table entries must be nonnegative integers, got {v!r}")
    for a, b in zip(vals, vals[1:]):
        if b < a:
            raise InputError("table must be nondecreasing")
    return vals


def chain2_bound(delta) -> list:
    """Profile bound from a one-piece table: best sum over partitions.

    delta[k] bounds the worst filling volume of one connected cycle of norm
    at most k (delta[0] = 0); the result bounds the full profile.
    """
    vals = _check_delta(delta)
    phi, _ = _partition_recurrence(vals)
    return phi


def disk_combination(delta, parts: int) -> list:
    """Best sum of the table over exactly `parts` nonnegative sizes."""
    if not _is_count(parts, 1):
        raise InputError(f"number of parts must be an integer >= 1, got {parts!r}")
    vals = _check_delta(delta)
    n = len(vals) - 1
    best = list(vals)
    for _ in range(parts - 1):
        nxt = []
        for j in range(n + 1):
            nxt.append(max(best[j - k] + vals[k] for k in range(j + 1)))
        best = nxt
    return best
