"""On-disk result cache with verification on reload.

One JSON file per entry, named by the sha256 of its key and holding
{"key", "value"}; it is replaced atomically, so concurrent runs never lose
each other's entries, and a file that cannot be read or holds another key
is a miss.  A `cache.json` left by older versions is ignored.  Keys hold
the skeleton fingerprint plus the query and budget.  Stored witnesses are
re-checked before a hit is trusted, and entries that fail are evicted and
recomputed.  A filling that passes proves FV(cycle) <= value.  On the
aspherical one-relator complexes of the rewriting gate in `profiles`, with
an oracle for the presented group itself (not a finite table, which may be a
quotient), the complex is the universal cover and the filling is unique, so
a passing fv or psi witness is exact there; elsewhere it is only an upper
bound, and minimality rests on the exhaustive search that wrote it.  phi is
not cached: it is derived from the cached psi table.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile

from .errors import ChainProfileError
from .profiles import _check_delta, _check_filling, _finite_boundary
from .skeleton import chain_from_json, norm
from .words import _is_int

logger = logging.getLogger(__name__)

# what a malformed or inconsistent entry raises while it is checked; any
# other exception is a bug in the checks and propagates
_BAD_ENTRY = (ChainProfileError, KeyError, TypeError, ValueError)


def default_cache_dir() -> str:
    env = os.environ.get("CHAINPROFILE_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "chainprofile")


class ResultCache:
    """Key-value store backed by one JSON file per key."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, key: str) -> str:
        name = hashlib.sha256(key.encode()).hexdigest() + ".json"
        return os.path.join(self.directory, name)

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as e:
            logger.warning("ignoring unreadable cache entry %s (%s)", path, e)
            return None
        if not isinstance(data, dict) or data.get("key") != key:
            logger.warning("ignoring cache entry %s stored under another key", path)
            return None
        return data.get("value")

    def put(self, key: str, value) -> None:
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            # json.dump to a file runs the pure-Python encoder; dumps is C
            text = json.dumps({"key": key, "value": value}, sort_keys=True)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def evict(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass


def profile_key(kind: str, fingerprint: str, n: int, budget) -> str:
    return f"{fingerprint}:{kind}:{n}:{budget.fill_volume_cap}:{budget.node_cap}"


def fv_key(fingerprint: str, chain_json, budget) -> str:
    digest = hashlib.sha256(
        json.dumps(chain_json, sort_keys=True).encode()).hexdigest()[:16]
    return f"{fingerprint}:fv:{digest}:{budget.fill_volume_cap}:{budget.node_cap}"


# A witness check returns (cycle norm, filling norm) when the stored filling
# bounds the stored cycle, and raises ChainProfileError when it does not.

def _psi_witness(wit, s, oracle):
    cyc = chain_from_json(wit["cycle"], s, oracle)
    fill = chain_from_json(wit["filling"], s, oracle)
    _check_filling(fill, cyc, s, oracle)
    return norm(cyc), norm(fill)


def _finite_chain(terms, dim, s, oracle) -> dict:
    """Stored cells of the finite cover as {(element, base cell): coeff}."""
    out = {}
    for t in terms:
        cdim, base = s.index[t["base"]]
        coeff = t["coeff"]
        if cdim != dim or not _is_int(coeff):
            raise ValueError(f"malformed finite witness cell {t!r}")
        cell = (oracle.elements.index(t["element"]), base)
        out[cell] = out.get(cell, 0) + coeff
    return {cell: c for cell, c in out.items() if c}


def _finite_witness(wit, s, oracle):
    cyc = _finite_chain(wit["cycle"], s.q - 1, s, oracle)
    fill = _finite_chain(wit["filling"], s.q, s, oracle)
    if _finite_boundary(s, oracle, fill) != cyc:
        raise ChainProfileError("finite filling witness failed verification")
    return sum(map(abs, cyc.values())), sum(map(abs, fill.values()))


_WITNESS_CHECKS = {"psi": _psi_witness, "finite": _finite_witness}


def verify_profile_entry(entry, kind: str, n: int, s, oracle) -> bool:
    """Structural and witness checks on a cached profile before reuse: the
    witness for size 0 is empty, and the witness for size k is a filling
    that bounds a cycle of norm at most k and has norm values[k]."""
    check = _WITNESS_CHECKS.get(kind)
    if check is None:
        return False
    if kind == "finite" and oracle.kind != "finite-table":
        return False
    try:
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
            norms = check(wit, s, oracle)
            if norms[0] > k or norms[1] != values[k]:
                return False
        return True
    except _BAD_ENTRY:
        return False


def verify_fv_entry(entry, target, s, oracle) -> bool:
    try:
        fill = chain_from_json(entry["filling"], s, oracle)
        _check_filling(fill, target, s, oracle)
        return _is_int(entry["value"]) and norm(fill) == entry["value"]
    except _BAD_ENTRY:
        return False
