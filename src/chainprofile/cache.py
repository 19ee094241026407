"""On-disk result cache with verification on reload.

One JSON file per entry, named by the sha256 of its key and holding
{"key", "value"}; it is replaced atomically, so concurrent runs never lose
each other's entries, and a file that cannot be read or holds another key
is a miss.  A `cache.json` left by older versions is ignored.  Keys hold
the skeleton fingerprint plus the query and budget.  Before a hit is
trusted, the route that wrote it (`profiles`) admits the oracle and
re-checks each stored witness; entries that fail are evicted and recomputed.
A filling that passes proves FV(cycle) <= value.  Inside Lyndon's gate of
`profiles` (an aspherical one-relator presentation complex, with an oracle
for the presented group itself, not a finite table, which may be a
quotient) the complex is the universal cover and the filling is unique, so
a passing fv witness is exact there.  A passing psi witness of size k is a
connected (q-1)-cycle of norm at most k with a filling of norm values[k]:
inside the gate that proves psi(k) >= values[k].  That no connected cycle
does better, and every minimality outside the gate, rests on the run that
wrote the entry.  phi is not cached: it is derived from the cached psi
table.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile

from .errors import ChainProfileError
from .profiles import _WITNESS_CHECKS, _check_delta, _check_filling, _check_route
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
        except (FileNotFoundError, NotADirectoryError):
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


def verify_profile_entry(entry, kind: str, n: int, s, oracle) -> bool:
    """Checks on a cached profile before reuse: its route admits the oracle,
    the witness for size 0 is empty, and the route's check passes the
    witness for size k with a cycle of norm <= k and a filling of values[k]."""
    check = _WITNESS_CHECKS.get(kind)
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
