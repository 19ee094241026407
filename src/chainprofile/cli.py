"""Command-line interface.

One handler per kind of query: `cmd_examples`, `cmd_validate`,
`cmd_enumerate` and `cmd_fv`; `cmd_profile` answers psi, phi and
finite-profile, and `cmd_bound` answers chain2-bound and disk-bound.
`cmd_fv` and `cmd_profile` go through `_cached`, which reuses a cache entry
only after its witnesses are verified.

`main(argv)` may be called repeatedly in one process.  The argument parser
is built on the first call and reused, so the `cmd_*` handlers are bound
then: to change what a command does, patch what its handler calls (such as
`chainprofile.cli.psi_table`), not the handler itself.

Each `--input` is read on every call, but each distinct text is parsed once
per process: the last few (skeleton, oracle) pairs are kept by text, so the
queries that share an input share its cached tables and normal forms too.
Editing the file gives a fresh parse.  The library loaders `load_input` and
`load_example` still build fresh objects on every call.

`_json_text` writes `--format json` output: the bytes of
`json.dumps(data, indent=2, sort_keys=True)`, which with an indent falls
back to json's pure-Python encoder, at about twice its speed.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .cache import (
    ResultCache,
    default_cache_dir,
    fv_key,
    profile_key,
    verify_fv_entry,
    verify_profile_entry,
)
from .enumeration import connected_chains_up_to_action, connected_cycles_up_to_action
from .errors import ChainProfileError
from .inputs import (
    bundled_examples,
    decode_input,
    format_chain,
    input_text,
    load_input,
    parse_chain,
    read_delta,
)
from .profiles import (
    Budget,
    ProfileTable,
    chain2_bound,
    disk_combination,
    finite_profile,
    minimal_filling,
    phi_table,
    psi_table,
)
from .skeleton import (
    chain_from_json,
    chain_to_json,
    norm,
    skeleton_fingerprint,
    validate,
)


@functools.lru_cache(maxsize=8)
def _parsed(text: str):
    """(skeleton, oracle) of one input text.  A refused text raises, and
    lru_cache keeps no entry for it."""
    return load_input(decode_input(text))


def _load(args):
    return _parsed(input_text(args.input))


def _budget(args) -> Budget:
    return Budget(fill_volume_cap=args.fill_cap, node_cap=args.node_cap)


_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    float: json.dumps,
}


def _json_key(key) -> str:
    """A dict key as `json` writes it: keys that are not str become text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _json_text(o, indent: str = "\n") -> str:
    """The text of `json.dumps(o, indent=2, sort_keys=True)` for a tree of
    JSON values, one join per container; indent is the newline and
    indentation of o's own level."""
    leaf = _JSON_LEAVES.get(type(o))
    if leaf is not None:
        return leaf(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        return ("[" + inner + ("," + inner).join([_json_text(v, inner) for v in o])
                + indent + "]")
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k if type(k) is str else _json_key(k)) + ": "
             + _json_text(v, inner) for k, v in sorted(o.items())]) + indent + "}")
    # subclasses of the leaf types, tested in json's order
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return json.dumps(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _print_json(data):
    print(_json_text(data))


def _cached(args, key, verify, compute):
    """The cache entry under key if it passes verify, else compute()'s entry,
    which is then stored.  A failing entry is evicted with a notice, and a
    cache that cannot be written is warned of."""
    if args.no_cache:
        return compute()
    cache = ResultCache(args.cache or default_cache_dir())
    entry = cache.get(key)
    if entry is not None:
        if verify(entry):
            return entry
        _write(cache.evict, key)
        print("cached result failed verification; recomputing", file=sys.stderr)
    entry = compute()
    _write(cache.put, key, entry)
    return entry


def _write(change, *args):
    """Apply one change to the cache; one that fails costs a warning, not
    the answer."""
    try:
        change(*args)
    except OSError as e:
        print(f"warning: cache not written: {e}", file=sys.stderr)


_DIM4_NOTE = ("in dimension 4 and above this profile is equivalent up to scaling "
              "to the manifold-type isoperimetric profile of the group: the same "
              "growth, not the same values")


def cmd_examples(args) -> int:
    examples = bundled_examples()
    if args.format == "json":
        _print_json(examples)
    else:
        width = max(len(n) for n in examples)
        for name, data in examples.items():
            print(f"{name:<{width}}  {data.get('description', '')}")
    return 0


def cmd_validate(args) -> int:
    s, oracle = _load(args)
    validate(s, oracle)
    info = {
        "fingerprint": skeleton_fingerprint(s, oracle),
        "dim": s.q,
        "oracle": oracle.name,
        "cells": {str(d): s.n_cells(d) for d in range(s.q + 1)},
    }
    if args.format == "json":
        _print_json(info)
    elif args.format == "csv":
        print("key,value")
        for key in ("fingerprint", "dim", "oracle"):
            print(f"{key},{info[key]}")
        for d, count in info["cells"].items():
            print(f"cells_{d},{count}")
    else:
        print("ok: boundary of boundary vanishes on every cell")
        print(f"fingerprint {info['fingerprint']}, dimension {s.q}, "
              f"oracle {oracle.name}")
        for d in range(s.q + 1):
            print(f"  {s.n_cells(d)} cells in dimension {d}")
    return 0


def cmd_enumerate(args) -> int:
    s, oracle = _load(args)
    fn = connected_cycles_up_to_action if args.cycles else connected_chains_up_to_action
    got = fn(s, oracle, args.chain_dim, args.max_norm, node_cap=args.node_cap)
    counts = {n: len(v) for n, v in sorted(got.items())}
    if args.format == "json":
        data = {"counts": {str(n): c for n, c in counts.items()}}
        if args.list:
            data["chains"] = {str(n): [format_chain(a, s) for a in v]
                              for n, v in sorted(got.items())}
        _print_json(data)
    elif args.format == "csv":
        print("norm,count")
        for n, c in counts.items():
            print(f"{n},{c}")
    else:
        kind = "cycles" if args.cycles else "chains"
        total = sum(counts.values())
        print(f"{total} connected {kind} up to the group action, "
              f"norm at most {args.max_norm}, dimension {args.chain_dim}")
        for n, c in counts.items():
            print(f"  norm {n}: {c}")
            if args.list:
                for a in got[n]:
                    print(f"    {format_chain(a, s)}")
    return 0


def cmd_fv(args) -> int:
    s, oracle = _load(args)
    target = parse_chain(args.chain, s, oracle)
    budget = _budget(args)

    def compute():
        filling = minimal_filling(target, s, oracle, budget=budget)
        return {"value": norm(filling), "filling": chain_to_json(filling, s)}

    entry = _cached(
        args, fv_key(skeleton_fingerprint(s, oracle), chain_to_json(target, s),
                     budget),
        lambda e: verify_fv_entry(e, target, s, oracle), compute)
    if args.format == "json":
        _print_json(entry)
    elif args.format == "csv":
        print("value")
        print(entry["value"])
    else:
        filling = chain_from_json(entry["filling"], s, oracle)
        print(f"filling volume {entry['value']}")
        print(f"filling: {format_chain(filling, s)}")
    return 0


def cmd_profile(args) -> int:
    """psi or finite-profile from the verified cache, or phi derived from the
    cached psi table by the partition recurrence."""
    s, oracle = _load(args)
    budget = _budget(args)
    n = args.max_size
    if args.command == "finite-profile":
        kind, compute = "finite", lambda: finite_profile(s, oracle, n, budget=budget)
    else:
        kind, compute = "psi", lambda: psi_table(s, oracle, n, budget=budget,
                                                 workers=args.workers)
    fingerprint = skeleton_fingerprint(s, oracle)
    entry = _cached(args, profile_key(kind, fingerprint, n, budget),
                    lambda e: verify_profile_entry(e, kind, n, s, oracle),
                    lambda: compute().to_json_dict())
    # the stored budget is not read: the table reports this query's
    table = ProfileTable(kind, fingerprint, budget.to_json_dict(),
                         entry["values"], entry["witnesses"])
    if args.command == "phi":
        table = phi_table(s, oracle, n, psi=table)
    if args.format == "json":
        _print_json(table.to_json_dict())
        return 0
    _emit_values(table.values, args.format)
    if args.format == "human" and kind == "psi" and s.q >= 4:
        print(f"note: {_DIM4_NOTE}")
    return 0


def _emit_values(values, fmt):
    if fmt == "json":
        _print_json({"values": values})
    elif fmt == "csv":
        print("n,value")
        for n, v in enumerate(values):
            print(f"{n},{v}")
    else:
        width = len(str(len(values) - 1))
        for n, v in enumerate(values):
            print(f"{n:>{width}}  {v}")


def cmd_bound(args) -> int:
    delta = read_delta(args.delta)
    values = (disk_combination(delta, args.parts) if args.command == "disk-bound"
              else chain2_bound(delta))
    _emit_values(values, args.format)
    return 0


def _at_least(low: int):
    """An argparse type: an integer no less than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: argparse leaves it unchanged
    while it parses."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True,
                        help="input JSON file or bundled example name")
    common.add_argument("--format", choices=("human", "json", "csv"),
                        default="human")
    common.add_argument("--cache", default=None, metavar="DIR",
                        help="cache directory (default: CHAINPROFILE_CACHE_DIR "
                             "or ~/.cache/chainprofile)")
    common.add_argument("--no-cache", action="store_true",
                        help="compute without reading or writing the cache")
    common.add_argument("--fill-cap", type=_at_least(0), default=Budget.fill_volume_cap,
                        help="largest filling norm the search will try")
    common.add_argument("--node-cap", type=_at_least(1), default=Budget.node_cap,
                        help="largest number of search states per query")
    common.add_argument("--workers", type=_at_least(1), default=1,
                        help="worker processes for independent fillings; "
                             "used by psi and phi only")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log DEBUG progress to stderr")

    p = argparse.ArgumentParser(
        prog="chainprofile",
        description="Filling volumes and isoperimetric profiles of chains "
                    "over group presentations.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("examples", help="list bundled inputs")
    sp.add_argument("--format", choices=("human", "json"), default="human")
    sp.set_defaults(func=cmd_examples)

    sp = sub.add_parser("validate", parents=[common],
                        help="check the complex and report its fingerprint")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("enumerate", parents=[common],
                        help="connected chains up to the group action")
    sp.add_argument("--chain-dim", type=int, required=True)
    sp.add_argument("--max-norm", type=_at_least(0), required=True)
    sp.add_argument("--cycles", action="store_true",
                    help="keep only chains with vanishing boundary")
    sp.add_argument("--list", action="store_true",
                    help="print each chain, not only the counts")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("fv", parents=[common],
                        help="least filling norm of a cycle")
    sp.add_argument("--chain", required=True,
                    help="chain literal such as '(1, e_a) + (a, e_b) - (b, e_a) - (1, e_b)'")
    sp.set_defaults(func=cmd_fv)

    for name, text in (
            ("psi", "worst filling volume of one connected cycle, by size"),
            ("phi", "profile over all cycle sizes via partitions"),
            ("finite-profile", "exact profile over a finite multiplication table")):
        sp = sub.add_parser(name, parents=[common], help=text)
        sp.add_argument("-n", "--max-size", type=_at_least(0), required=True)
        sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("chain2-bound",
                        help="profile bound from a one-piece filling table")
    sp.add_argument("--delta", required=True, metavar="FILE",
                    help="file of integers delta(0..n), delta(0) = 0")
    sp.add_argument("--format", choices=("human", "json", "csv"), default="human")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("disk-bound",
                        help="best table sum over a fixed number of pieces")
    sp.add_argument("--delta", required=True, metavar="FILE")
    sp.add_argument("--parts", type=_at_least(1), required=True)
    sp.add_argument("--format", choices=("human", "json", "csv"), default="human")
    sp.set_defaults(func=cmd_bound)

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "verbose", False):
            logging.basicConfig(level=logging.DEBUG, stream=sys.stderr)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ChainProfileError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so
        # that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
