"""Input descriptions, chain literals, and the bundled examples."""

from __future__ import annotations

import json
import os
from importlib import resources

from .errors import InputError
from .skeleton import (
    LiftedCell,
    SkeletonSpec,
    build_chain,
    presentation_complex,
)
from .words import (
    _is_int,
    format_word,
    make_presentation,
    oracle_from_config,
    parse_presentation,
    parse_word,
)


def _presentation_from(value):
    if isinstance(value, str):
        return parse_presentation(value)
    if isinstance(value, dict):
        if "generators" not in value:
            raise InputError("presentation object is missing 'generators'")
        return make_presentation(value["generators"], value.get("relators", []))
    raise InputError("presentation must be a string or an object")


def load_input(source):
    """Build (skeleton, oracle) from a description dict or a JSON file path.

    The description holds "dim", "presentation", "oracle", and, above
    dimension 2 or for non-standard complexes, explicit "cells".  Without
    cells the two-dimensional complex of the presentation is used.
    """
    if isinstance(source, (str, os.PathLike)):
        data = decode_input(_file_text(source))
    else:
        data = source
    if not isinstance(data, dict):
        raise InputError("input description must be a JSON object")
    for key in ("dim", "presentation", "oracle"):
        if key not in data:
            raise InputError(f"input description is missing {key!r}")
    q = data["dim"]
    if not _is_int(q):
        raise InputError("dim must be an integer")
    p = _presentation_from(data["presentation"])
    cfg = data["oracle"]
    if not isinstance(cfg, dict):
        raise InputError("oracle config must be an object")
    oracle = oracle_from_config(p, cfg)
    if "cells" in data:
        if not isinstance(data["cells"], list):
            raise InputError("cells must be a list")
        cells = []
        for entry in data["cells"]:
            try:
                dim, cid = entry["dim"], entry["id"]
                terms = entry.get("boundary", [])
            except (TypeError, KeyError):
                raise InputError(f"malformed cell entry {entry!r}") from None
            if not isinstance(terms, list):
                raise InputError(f"boundary of cell {cid!r} must be a list")
            bnd = []
            for t in terms:
                try:
                    w = parse_word(t["word"], p.generators)
                    bnd.append((w, t["base"], t["coeff"]))
                except (TypeError, KeyError):
                    raise InputError(f"malformed boundary term {t!r}") from None
            cells.append((dim, cid, bnd))
        return SkeletonSpec(q, p, cells), oracle
    if q != 2:
        raise InputError("explicit cells are required above dimension 2")
    return presentation_complex(p), oracle


# ------------------------------------------------------------ chain literals

def parse_chain(text: str, s, oracle):
    """Chain from a literal like "2*(a b, f0) - (1, e_a)"."""
    text = text.strip()
    if not text:
        raise InputError("empty chain literal")
    if text == "0":
        raise InputError("chain literal '0' is the zero chain, which has no dimension; "
                         "write it as terms that cancel, such as '(1, c) - (1, c)'")
    i, n = 0, len(text)
    terms = []
    first = True
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i += 1
            while i < n and text[i].isspace():
                i += 1
        elif not first:
            raise InputError("chain terms must be joined with + or -")
        coeff = 1
        if i < n and text[i].isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            coeff = int(text[i:j])
            i = j
            while i < n and text[i].isspace():
                i += 1
            if i >= n or text[i] != "*":
                raise InputError("expected '*' between coefficient and cell")
            i += 1
            while i < n and text[i].isspace():
                i += 1
        if i >= n or text[i] != "(":
            raise InputError(f"expected '(' at position {i} of chain literal")
        j = text.find(")", i)
        if j < 0:
            raise InputError("unbalanced parenthesis in chain literal")
        inner = text[i + 1:j]
        if "," not in inner:
            raise InputError(f"term {inner!r} needs the form (word, cell)")
        wtext, cid = inner.rsplit(",", 1)
        cid = cid.strip()
        if cid not in s.index:
            raise InputError(f"unknown cell {cid!r} in chain literal")
        dim, idx = s.index[cid]
        word = parse_word(wtext.strip(), s.presentation.generators)
        terms.append((LiftedCell(dim, idx, word), sign * coeff))
        i = j + 1
        first = False
    dims = {c.dim for c, _ in terms}
    if len(dims) != 1:
        raise InputError("chain literal mixes cells of different dimensions")
    return build_chain(dims.pop(), terms, oracle)


def format_chain(a, s) -> str:
    """Literal form of a chain; parse_chain inverts it, except on the zero
    chain: its literal "0" names no dimension, so parse_chain refuses it."""
    if not a.terms:
        return "0"
    pieces = []
    for c, coeff in a.terms:
        mag = abs(coeff)
        body = f"({format_word(c.word)}, {s.cell_id(c.dim, c.base)})"
        if mag != 1:
            body = f"{mag}*{body}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)


# -------------------------------------------------------------- delta tables

def read_delta(path) -> list:
    """Whitespace- or comma-separated integers from a text file."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"cannot read table file: {e}") from None
    out = []
    for tok in raw.replace(",", " ").split():
        try:
            out.append(int(tok))
        except ValueError:
            raise InputError(f"table entry {tok!r} is not an integer") from None
    if not out:
        raise InputError("table file holds no values")
    return out


# ----------------------------------------------------------- bundled inputs

def _bundled_files() -> dict:
    """Name -> resource of each input shipped with the package, unread."""
    root = resources.files("chainprofile.data")
    return {item.name[:-5]: item
            for item in sorted(root.iterdir(), key=lambda p: p.name)
            if item.name.endswith(".json")}


def bundled_examples() -> dict:
    """Name -> description dict for the inputs shipped with the package."""
    return {name: json.loads(item.read_text())
            for name, item in _bundled_files().items()}


def _example_text(name: str) -> str:
    """The text of the bundled input called name.  Its file is opened by
    name; the directory is listed only to say what is available."""
    if os.sep not in name and "/" not in name:
        try:
            return (resources.files("chainprofile.data") / f"{name}.json").read_text()
        except (OSError, ValueError):   # missing, or a name no file can have
            pass
    raise InputError(f"input {name!r} is neither a file nor a bundled name; "
                     f"available: {', '.join(sorted(_bundled_files()))}")


def _file_text(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read input file: {e}") from None


def input_text(source: str) -> str:
    """The text of the input file at source if there is one, else of the
    bundled input named source."""
    return _file_text(source) if os.path.exists(source) else _example_text(source)


def decode_input(text: str):
    """The description held by an input text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"input file is not valid JSON: {e}") from None


def load_example(name: str):
    """(skeleton, oracle) of one bundled input; only its own file is read."""
    return load_input(decode_input(_example_text(name)))
