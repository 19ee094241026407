"""Command-line interface.

One handler per kind of query: `cmd_examples`, `cmd_validate`,
`cmd_enumerate` and `cmd_fv`; `cmd_profile` answers psi, phi and
finite-profile, and `cmd_bound` answers chain2-bound and disk-bound.
`cmd_fv` and `cmd_profile` go through `_cached`, which reuses a cache entry
only after its witnesses are verified.

`main(argv)` may be called repeatedly in one process.  It builds only the
parser of the command argv names, once per process, from `COMMANDS`; the
handlers there are bound at import, so to change what a command does,
patch what its handler calls (such as `chainprofile.cli.psi_table`).

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
from .cache import ResultCache, default_cache_dir, fv_key, profile_key
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
    fv_entry,
    phi_table,
    psi_table,
    verify_fv_entry,
    verify_profile_entry,
)
from .skeleton import chain_from_json, chain_to_json, skeleton_fingerprint, validate


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
    """A dict key that is not a str, as `json` writes it."""
    if isinstance(key, (int, float)) or key is None:
        return _json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _json_text(o, indent: str = "\n") -> str:
    """The text of `json.dumps(o, indent=2, sort_keys=True)` for a tree of
    JSON values, one join per container; indent is the newline and
    indentation of o's own level.  Leaves are of the exact built-in types,
    as the package builds them and `json` reads them: a subclass is refused."""
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
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


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
        print(_json_text(examples))
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
        print(_json_text(info))
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
        print(_json_text(data))
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
    entry = _cached(
        args, fv_key(skeleton_fingerprint(s, oracle), chain_to_json(target, s),
                     budget),
        lambda e: verify_fv_entry(e, target, s, oracle),
        lambda: fv_entry(target, s, oracle, budget))
    if args.format == "json":
        print(_json_text(entry))
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
        print(_json_text(table.to_json_dict()))
        return 0
    _emit_values(table.values, args.format)
    if args.format == "human" and kind == "psi" and s.q >= 4:
        print(f"note: {_DIM4_NOTE}")
    return 0


def _emit_values(values, fmt):
    if fmt == "json":
        print(_json_text({"values": values}))
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


def _option(*flags, **kwargs):
    """The function that adds one option to a parser."""
    return lambda p: p.add_argument(*flags, **kwargs)


_FORMAT = _option("--format", choices=("human", "json", "csv"), default="human")
# the options of every command that reads an --input
_INPUT = [
    _option("--input", required=True, help="input JSON file or bundled example name"),
    _FORMAT,
    _option("--cache", default=None, metavar="DIR", help="cache directory (default: "
            "CHAINPROFILE_CACHE_DIR or ~/.cache/chainprofile)"),
    _option("--no-cache", action="store_true",
            help="compute without reading or writing the cache"),
    _option("--fill-cap", type=_at_least(0), default=Budget.fill_volume_cap,
            help="largest filling norm the search will try"),
    _option("--node-cap", type=_at_least(1), default=Budget.node_cap,
            help="largest number of search states per query"),
    _option("--workers", type=_at_least(1), default=1,
            help="worker processes for independent fillings; used by psi and phi only"),
    _option("-v", "--verbose", action="store_true", help="log DEBUG progress to stderr")]
_PROFILE = [*_INPUT, _option("-n", "--max-size", type=_at_least(0), required=True)]

# name -> (help, the functions that add its options, handler), in the order
# of the top-level help
COMMANDS = {
    "examples": ("list bundled inputs", [_option(
        "--format", choices=("human", "json"), default="human")], cmd_examples),
    "validate": ("check the complex and report its fingerprint", _INPUT, cmd_validate),
    "enumerate": ("connected chains up to the group action", [
        *_INPUT, _option("--chain-dim", type=int, required=True),
        _option("--max-norm", type=_at_least(0), required=True),
        _option("--cycles", action="store_true",
                help="keep only chains with vanishing boundary"),
        _option("--list", action="store_true",
                help="print each chain, not only the counts")], cmd_enumerate),
    "fv": ("least filling norm of a cycle", [*_INPUT, _option(
        "--chain", required=True,
        help="chain literal such as '(1, e_a) + (a, e_b) - (b, e_a) - (1, e_b)'")], cmd_fv),
    "psi": ("worst filling volume of one connected cycle, by size", _PROFILE, cmd_profile),
    "phi": ("profile over all cycle sizes via partitions", _PROFILE, cmd_profile),
    "finite-profile": ("exact profile over a finite multiplication table", _PROFILE,
                       cmd_profile),
    "chain2-bound": ("profile bound from a one-piece filling table", [_option(
        "--delta", required=True, metavar="FILE",
        help="file of integers delta(0..n), delta(0) = 0"), _FORMAT], cmd_bound),
    "disk-bound": ("best table sum over a fixed number of pieces", [
        _option("--delta", required=True, metavar="FILE"),
        _option("--parts", type=_at_least(1), required=True), _FORMAT], cmd_bound),
}


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, built once per process: argparse leaves
    it unchanged while it parses."""
    p = argparse.ArgumentParser(prog=f"chainprofile {name}")
    for add in COMMANDS[name][1]:
        add(p)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole tree: the top-level parser, with a copy of each command's
    parser as its subparser."""
    p = argparse.ArgumentParser(
        prog="chainprofile",
        description="Filling volumes and isoperimetric profiles of chains "
                    "over group presentations.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in COMMANDS.items():
        sub.add_parser(name, help=text, parents=[_command_parser(name)], add_help=False)
    return p


def _parse_args(argv):
    """The command's own parser reads argv.  The whole tree reads any other
    line, one with an argument the command does not take, and one with
    "--=", which its top level refuses, and prints its usage and errors."""
    if argv and argv[0] in COMMANDS and not any(a.startswith("--=") for a in argv):
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if getattr(args, "verbose", False):
            logging.basicConfig(level=logging.DEBUG, stream=sys.stderr)
        code = COMMANDS[args.command][2](args)
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
