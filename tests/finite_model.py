"""Exhaustive model of the exact finite sweep, for tests only.

It lists every integer chain of each norm on the finite cover, keeps the
ones with zero boundary as cycles, then sweeps fillings by norm and records
each cycle's FV the first time its boundary shows up.  It shares nothing
with the package's sweep but the cells of the cover and their boundaries,
and it is exponential in the norm, so keep the sizes small.
"""

from chainprofile.profiles import _finite_cells, _finite_unit_boundary


def chains_of_norm(cells, unit_bnds, total):
    """All coefficient assignments of given total norm over the cells, with
    their boundaries."""
    m = len(cells)

    def rec(i, left, acc, bnd):
        if i == m or left == 0:
            if left == 0:
                yield dict(acc), dict(bnd)
            return
        yield from rec(i + 1, left, acc, bnd)
        for mag in range(1, left + 1):
            for sign in (1, -1):
                acc[cells[i]] = mag * sign
                nb = dict(bnd)
                for cell, c in unit_bnds[i].items():
                    v = nb.get(cell, 0) + c * mag * sign
                    if v:
                        nb[cell] = v
                    else:
                        nb.pop(cell, None)
                yield from rec(i + 1, left - mag, acc, nb)
                del acc[cells[i]]

    yield from rec(0, total, {}, {})


def freeze(chain):
    return tuple(sorted(chain.items()))


def cycles_of(s, oracle, n):
    """{cycle: norm} for the cycles of norm at most n, each cycle a sorted
    ((element, base), coeff) tuple."""
    dim = s.q - 1
    cells = _finite_cells(s, oracle, dim)
    bnds = [_finite_unit_boundary(s, oracle, dim, e, b) for e, b in cells]
    return {freeze(chain): total for total in range(n + 1)
            for chain, bnd in chains_of_norm(cells, bnds, total) if not bnd}


def sweep(s, oracle, n, fill_cap=24):
    """({cycle: norm}, {cycle: FV}) for the cycles of norm at most n, each
    cycle a sorted ((element, base), coeff) tuple."""
    fill_cells = _finite_cells(s, oracle, s.q)
    fill_bnds = [_finite_unit_boundary(s, oracle, s.q, e, b) for e, b in fill_cells]
    cycles = cycles_of(s, oracle, n)
    fv = {}
    for v in range(fill_cap + 1):
        if len(fv) == len(cycles):
            break
        for _, bnd in chains_of_norm(fill_cells, fill_bnds, v):
            key = freeze(bnd)
            if key in cycles and key not in fv:
                fv[key] = v
    return cycles, fv


def forward_fv(s, oracle, targets, fill_cap=24):
    """{cycle: FV} for the given cycles by a plain breadth-first search from
    0 over boundaries, each level built in full, vectors as sorted tuples."""
    steps = set()
    for e, b in _finite_cells(s, oracle, s.q):
        bnd = _finite_unit_boundary(s, oracle, s.q, e, b)
        if bnd:
            steps.add(freeze(bnd))
            steps.add(freeze({cell: -c for cell, c in bnd.items()}))

    def add(x, d):
        out = dict(x)
        for cell, c in d:
            out[cell] = out.get(cell, 0) + c
            if not out[cell]:
                del out[cell]
        return freeze(out)

    want, fv = set(targets), {}
    prev, level = set(), {()}
    for v in range(fill_cap + 1):
        for key in level & want:
            fv[key] = v
        if len(fv) == len(want):
            break
        prev, level = level, {add(x, d) for x in level for d in steps} - level - prev
    return fv
