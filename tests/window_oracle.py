"""Brute-force ground truth on small windows, independent of the package.

Everything here works on plain coordinate tuples: the square-lattice complex
of the rank-2 free abelian group (generator a = +x, b = +y, one square per
lattice cell), the two-element cover of the order-2 group, partitions and
compositions, and the tree of the rank-2 free group.  Nothing imports the
package under test; boundary conventions are derived by hand from the lift
rule for the relator a b a^-1 b^-1 and fixed here.

Written before the main implementation.  Tests freeze values computed here.

Cells:
    vertex   (x, y)
    h-edge   ("h", x, y)   from (x, y) to (x+1, y)      lift of e_a at a^x b^y
    v-edge   ("v", x, y)   from (x, y) to (x, y+1)      lift of e_b at a^x b^y
    face     ("f", x, y)   unit square with corner (x, y)

Face boundary (hand-derived from the relator lift, prefix by prefix):
    d f(x,y) = h(x,y) + v(x+1,y) - h(x,y+1) - v(x,y)

A chain is a dict cell -> nonzero int coefficient.
"""

import functools
import itertools


# ---------------------------------------------------------------- basic algebra

def norm(chain):
    return sum(abs(c) for c in chain.values())


def add(a, b):
    out = dict(a)
    for k, c in b.items():
        t = out.get(k, 0) + c
        if t:
            out[k] = t
        else:
            out.pop(k, None)
    return out


def scale(chain, s):
    return {k: c * s for k, c in chain.items()} if s else {}


def edge_boundary(e):
    kind, x, y = e
    if kind == "h":
        return {(x + 1, y): 1, (x, y): -1}
    return {(x, y + 1): 1, (x, y): -1}


def face_boundary(f):
    _, x, y = f
    return {("h", x, y): 1, ("v", x + 1, y): 1, ("h", x, y + 1): -1, ("v", x, y): -1}


def cell_boundary(cell):
    return face_boundary(cell) if cell[0] == "f" else edge_boundary(cell)


def chain_boundary(chain):
    """Boundary of an edge chain or a face chain (keys decide which)."""
    out = {}
    for cell, c in chain.items():
        out = add(out, scale(cell_boundary(cell), c))
    return out


def edge_ends(e):
    kind, x, y = e
    return ((x, y), (x + 1, y)) if kind == "h" else ((x, y), (x, y + 1))


def translate(chain, dx, dy):
    out = {}
    for cell, c in chain.items():
        if isinstance(cell[0], str):
            out[(cell[0], cell[1] + dx, cell[2] + dy)] = c
        else:
            out[(cell[0] + dx, cell[1] + dy)] = c
    return out


def canonical(chain):
    """Translate so the minimal support coordinates hit 0, serialize sorted."""
    if not chain:
        return ()
    dx = -min(cell[1] for cell in chain)
    dy = -min(cell[2] for cell in chain)
    return tuple(sorted(translate(chain, dx, dy).items()))


def is_subchain(b, a):
    """Per-cell coefficient window test: b between 0 and a, cellwise."""
    for cell, cb in b.items():
        ca = a.get(cell, 0)
        if ca >= 0:
            if not (0 <= cb <= ca):
                return False
        else:
            if not (ca <= cb <= 0):
                return False
    return True


# ------------------------------------------------------------- connectivity

def _proper_component_exists(chain):
    """Search for a proper nonzero subchain whose boundary is a subchain of
    the chain's boundary (that is, a component other than 0 and the chain).

    Recursive per-cell coefficient choice.  Prunes on boundary cells all of
    whose incident support cells are already decided.
    """
    cells = sorted(chain)
    k = len(cells)
    unit_bnd = [cell_boundary(c) for c in cells]
    total = chain_boundary(chain)
    full = norm(chain)

    # for each boundary cell, the last support index that touches it
    last = {}
    for i, ub in enumerate(unit_bnd):
        for bc in ub:
            last[bc] = i

    def rec(i, partial, used):
        if i == k:
            return 0 < used < full
        cell = cells[i]
        n = chain[cell]
        step = 1 if n > 0 else -1
        for t in range(0, abs(n) + 1):
            coeff = step * t
            newp = add(partial, scale(unit_bnd[i], coeff)) if coeff else partial
            # finalized boundary cells must sit inside the window already
            ok = True
            for bc in unit_bnd[i]:
                if last[bc] == i:
                    v = newp.get(bc, 0)
                    tot = total.get(bc, 0)
                    lo, hi = (0, tot) if tot >= 0 else (tot, 0)
                    if not (lo <= v <= hi):
                        ok = False
                        break
            if not ok:
                continue
            if rec(i + 1, newp, used + t):
                return True
        return False

    return rec(0, {}, 0)


def is_connected(chain):
    if not chain:
        return False
    return not _proper_component_exists(chain)


# --------------------------------------------- connected supports and chains

def _canon_set(s):
    dx = -min(e[1] for e in s)
    dy = -min(e[2] for e in s)
    return frozenset((k, x + dx, y + dy) for k, x, y in s)


def connected_supports(max_edges):
    """Canonical (translated) connected edge sets, grouped by size."""
    by_size = {1: {_canon_set({("h", 0, 0)}), _canon_set({("v", 0, 0)})}}
    for size in range(2, max_edges + 1):
        cur = set()
        for s in by_size[size - 1]:
            verts = set()
            for e in s:
                verts.update(edge_ends(e))
            for (x, y) in verts:
                for cand in (("h", x, y), ("h", x - 1, y), ("v", x, y), ("v", x, y - 1)):
                    if cand not in s:
                        cur.add(_canon_set(s | {cand}))
        by_size[size] = cur
    return by_size


def _compositions(total, parts):
    """Tuples of positive ints summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def connected_chain_orbits(n):
    """All connected 1-chains of norm <= n up to translation.

    Returns dict norm -> set of canonical serializations.
    """
    supports = connected_supports(n)
    out = {m: set() for m in range(1, n + 1)}
    for size, sets in supports.items():
        for sup in sets:
            cells = sorted(sup)
            for total in range(size, n + 1):
                for comp in _compositions(total, size):
                    for signs in itertools.product((1, -1), repeat=size):
                        chain = {c: m * s for c, m, s in zip(cells, comp, signs)}
                        if is_connected(chain):
                            out[total].add(canonical(chain))
    return out


def connected_cycle_orbits(n):
    """All connected 1-cycles of norm <= n up to translation."""
    supports = connected_supports(n)
    out = {m: set() for m in range(1, n + 1)}
    for size, sets in supports.items():
        if size < 4:
            continue
        for sup in sets:
            degree = {}
            for e in sup:
                for vtx in edge_ends(e):
                    degree[vtx] = degree.get(vtx, 0) + 1
            if any(d < 2 for d in degree.values()):
                continue
            cells = sorted(sup)
            for total in range(size, n + 1):
                for comp in _compositions(total, size):
                    for signs in itertools.product((1, -1), repeat=size):
                        chain = {c: m * s for c, m, s in zip(cells, comp, signs)}
                        if chain_boundary(chain):
                            continue
                        if is_connected(chain):
                            out[total].add(canonical(chain))
    return out


# ----------------------------------------------------------------- fillings

def winding_filling(cycle):
    """The unique face chain filling a 1-cycle, by winding numbers.

    Winding of the face with corner (x, y): total signed count of v-edge
    crossings of the ray from the face center toward +x.  Verified against
    the boundary operator before returning.
    """
    if chain_boundary(cycle):
        raise ValueError("not a cycle")
    if not cycle:
        return {}
    xs = [c[1] for c in cycle]
    ys = [c[2] for c in cycle]
    fill = {}
    for y in range(min(ys) - 1, max(ys) + 2):
        for x in range(min(xs) - 1, max(xs) + 2):
            w = 0
            for (kind, ex, ey), c in cycle.items():
                if kind == "v" and ey == y and ex > x:
                    w += c
            if w:
                fill[("f", x, y)] = w
    if chain_boundary(fill) != cycle:
        raise AssertionError("winding filling failed its own boundary check")
    return fill


def filling_volume(cycle):
    return norm(winding_filling(cycle))


def z2_psi_table(n):
    """[psi(0), ..., psi(n)]: max filling volume over connected 1-cycles of
    norm at most k, from the walk enumeration (which agrees with the support
    enumeration to norm 8, test_window_oracle)."""
    out = [0]
    for m in range(1, n + 1):
        out.append(max([out[-1]] + [filling_volume(dict(ser))
                                    for ser in cycle_orbits_by_walks(m)]))
    return out


def z2_psi(n):
    """Max filling volume over connected 1-cycles of norm <= n."""
    return z2_psi_table(n)[n]


@functools.cache
def cycle_orbits_by_walks(L):
    """Connected 1-cycles of norm exactly L, enumerated through closed walks.

    A connected integer 1-cycle is balanced at every vertex with connected
    support, so the multigraph with |coeff| parallel oriented copies of each
    edge has a closed Eulerian circuit: every such cycle is the signed edge
    sum of a closed walk of length equal to its norm.  Enumerate closed walks
    of length L from the origin, keep sums with norm L and empty boundary,
    filter connectivity, dedup up to translation.  Memoized, so the set is
    frozen.
    """
    out = set()
    steps = (("h", 0, 0, 1, 0, 1), ("h", -1, 0, -1, 0, -1),
             ("v", 0, 0, 0, 1, 1), ("v", 0, -1, 0, -1, -1))

    def rec(x, y, left, chain):
        if abs(x) + abs(y) > left:
            return
        if left == 0:
            if norm(chain) == L and not chain_boundary(chain) and is_connected(chain):
                out.add(canonical(chain))
            return
        for kind, ox, oy, dx, dy, sgn in steps:
            edge = (kind, x + ox, y + oy)
            c = chain.get(edge, 0) + sgn
            nxt = dict(chain)
            if c:
                nxt[edge] = c
            else:
                nxt.pop(edge, None)
            rec(x + dx, y + dy, left - 1, nxt)

    rec(0, 0, L, {})
    return frozenset(out)


# ------------------------------------------------- partitions, compositions

def partitions(n):
    """Nonincreasing positive partitions of n."""
    def rec(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest
    return rec(n, n)


def partition_max(delta, n):
    """Max over partitions of n of the summed table values."""
    if n == 0:
        return 0
    return max(sum(delta[p] for p in part) for part in partitions(n))


def compositions0(n, k):
    """k-tuples of nonnegative ints summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(0, n + 1):
        for rest in compositions0(n - first, k - 1):
            yield (first,) + rest


def disk_max(delta, k, n):
    return max(sum(delta[p] for p in comp) for comp in compositions0(n, k))


# ------------------------------------------------- order-2 group, S^2 cover

# Cover of <a | a a>: vertices {e, a}, edges {E0=(e,e_a), E1=(a,e_a)},
# faces {F0=(e,f), F1=(a,f)}.  Hand-derived lifts: d E0 = (a) - (e),
# d E1 = (e) - (a), d F0 = E0 + E1 (relator a a, prefixes e and a),
# d F1 = a . d F0 = E1 + E0.

def zmod2_cycles(n):
    """Edge cycles of norm <= n, as (c0, c1) coefficient pairs."""
    out = []
    for c0 in range(-n, n + 1):
        for c1 in range(-n, n + 1):
            if abs(c0) + abs(c1) > n:
                continue
            # boundary: c0*((a)-(e)) + c1*((e)-(a)) = (c0-c1)*((a)-(e))
            if c0 - c1 == 0 and (c0 or c1):
                out.append((c0, c1))
    return out


def zmod2_fill_volume(c0, c1, cap=64):
    """Min |t0|+|t1| with d(t0 F0 + t1 F1) = (c0, c1); brute box scan."""
    assert c0 == c1
    best = None
    for t0 in range(-cap, cap + 1):
        for t1 in range(-cap, cap + 1):
            if t0 + t1 == c0:
                v = abs(t0) + abs(t1)
                if best is None or v < best:
                    best = v
    return best


def zmod2_profile(n):
    """Max filling volume over all edge cycles of norm <= n."""
    best = 0
    for c0, c1 in zmod2_cycles(n):
        best = max(best, zmod2_fill_volume(c0, c1))
    return best


# ------------------------------------------------------------ rank-2 free tree

def f2_ball_is_forest(radius):
    """Certify the Cayley graph ball of the rank-2 free group is a forest.

    Vertices: reduced words over a, b (tuples of (gen, sign)); an edge joins
    w to w*g for each generator.  A tree on k vertices has exactly k-1 edges
    and union-find never closes a loop.
    """
    def reduce_app(w, gen, sign):
        if w and w[-1] == (gen, -sign):
            return w[:-1]
        return w + ((gen, sign),)

    seen = {(): 0}
    order = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            if len(w) == radius:
                continue
            for gen in range(2):
                for sign in (1, -1):
                    w2 = reduce_app(w, gen, sign)
                    if w2 not in seen:
                        seen[w2] = len(order)
                        order.append(w2)
                        nxt.append(w2)
        frontier = nxt

    parent = list(range(len(order)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges = 0
    for w in order:
        for gen in range(2):
            w2 = reduce_app(w, gen, 1)
            if w2 in seen and len(w2) > len(w):
                edges += 1
                a, b = find(seen[w]), find(seen[w2])
                if a == b:
                    return False
                parent[a] = b
            w3 = reduce_app(w, gen, -1)
            if w3 in seen and len(w3) > len(w):
                edges += 1
                a, b = find(seen[w]), find(seen[w3])
                if a == b:
                    return False
                parent[a] = b
    return edges == len(order) - 1
