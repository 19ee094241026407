"""Orbit equality by brute force, the reference for the enumeration tests.

Two chains lie in one translation orbit when some deck translation carries
one onto the other.  Only the translations that move a cell of b onto the
first cell of a can do so, and this tries each of them, comparing chains
through the oracle.
"""

from chainprofile.skeleton import Chain, chains_equal, norm, translate
from chainprofile.words import compose, invert


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
