"""Input descriptions, chain literals, and the bundled examples."""

from __future__ import annotations

import itertools
import json
import os
import re
from importlib import resources

from .errors import InputError
from .skeleton import SkeletonSpec, _chain_from_terms, presentation_complex
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
    if "cells" in data or q < 2:  # below 2 the skeleton refuses the dimension
        entries = data.get("cells", [])
        if not isinstance(entries, list):
            raise InputError("cells must be a list")
        cells = []
        for entry in entries:
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

# one pass reads the tokens of a literal: a sign, a coefficient with its
# '*', a parenthesised (word, cell) term, or any other character, an error
_CHAIN_TOKEN = re.compile(r"(?P<sign>[+-])|(?P<coeff>\d+)\s*\*|\((?P<term>[^()]*)\)|\S")


def parse_chain(text: str, s, oracle):
    """Chain from a literal like "2*(a b, f0) - (1, e_a)"; its terms are
    read as stored chains are, in the dimension of the first cell."""
    text = text.strip()
    if not text:
        raise InputError("empty chain literal")
    if text == "0":
        raise InputError("chain literal '0' is the zero chain, which has no dimension; "
                         "write it as terms that cancel, such as '(1, c) - (1, c)'")
    terms = _literal_terms(text)
    first = next(terms)
    dim, _ = s.index.get(first[1], (None, None))  # an unknown id is refused below
    return _chain_from_terms(dim, itertools.chain([first], terms), s, oracle)


def _literal_terms(text: str):
    """The (word text, cell id, coeff) terms of a stripped literal, yielded
    as they are read, so a term's fault is met before any later one."""
    after_term = False  # a later term must open with its sign
    sign = coeff = None
    for m in _CHAIN_TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if after_term and kind != "sign":
            raise InputError("chain terms must be joined with + or -")
        if kind == "term":
            body = m["term"]
            if "," not in body:
                raise InputError(f"term {body!r} needs the form (word, cell)")
            word, cid = body.rsplit(",", 1)
            yield (word.strip(), cid.strip(),
                   (sign or 1) * (1 if coeff is None else coeff))
            after_term, sign, coeff = True, None, None
        elif kind == "sign" and sign is None and coeff is None:
            after_term, sign = False, -1 if tok == "-" else 1
        elif kind == "coeff" and coeff is None:
            coeff = int(m["coeff"])
        elif tok == "(":
            raise InputError("unbalanced parenthesis in chain literal")
        elif tok.isdigit() and coeff is None:
            raise InputError("expected '*' between coefficient and cell")
        else:
            raise InputError(f"expected '(' at position {m.start()} of chain literal")
    if not after_term:
        raise InputError(f"expected '(' at position {len(text)} of chain literal")


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
