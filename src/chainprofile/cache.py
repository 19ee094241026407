"""On-disk result cache.

One JSON file per entry, named by the sha256 of its key and holding
{"key", "value"}; it is replaced atomically, so concurrent runs never lose
each other's entries, and a file that cannot be read or holds another key
is a miss.  A `cache.json` left by older versions is ignored.  Keys hold
the skeleton fingerprint plus the query and budget.  Before a hit is
trusted, the route that wrote it admits it: `verify_profile_entry` and
`verify_fv_entry` live in `profiles` and are re-exported here.  Entries
that fail are evicted and recomputed.  phi is not cached: it is derived
from the cached psi table.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile

from .profiles import verify_fv_entry, verify_profile_entry  # re-exported

logger = logging.getLogger(__name__)


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
