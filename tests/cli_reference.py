"""The command line's argument parser as one argparse subparser tree, the
reference for the parsers that `chainprofile.cli` builds one command at a
time.

Every command is a subparser of one top-level parser, and the commands
that read an --input take their shared options from a `common` parent.
The handlers are left out: the reference only parses, and its help,
usage and error texts are the ones the command line must print.
"""

import argparse

from chainprofile import __version__
from chainprofile.profiles import Budget


def _at_least(low: int):
    """An argparse type: an integer no less than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def reference_parser() -> argparse.ArgumentParser:
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

    sub.add_parser("validate", parents=[common],
                   help="check the complex and report its fingerprint")

    sp = sub.add_parser("enumerate", parents=[common],
                        help="connected chains up to the group action")
    sp.add_argument("--chain-dim", type=int, required=True)
    sp.add_argument("--max-norm", type=_at_least(0), required=True)
    sp.add_argument("--cycles", action="store_true",
                    help="keep only chains with vanishing boundary")
    sp.add_argument("--list", action="store_true",
                    help="print each chain, not only the counts")

    sp = sub.add_parser("fv", parents=[common],
                        help="least filling norm of a cycle")
    sp.add_argument("--chain", required=True,
                    help="chain literal such as '(1, e_a) + (a, e_b) - (b, e_a) - (1, e_b)'")

    for name, text in (
            ("psi", "worst filling volume of one connected cycle, by size"),
            ("phi", "profile over all cycle sizes via partitions"),
            ("finite-profile", "exact profile over a finite multiplication table")):
        sp = sub.add_parser(name, parents=[common], help=text)
        sp.add_argument("-n", "--max-size", type=_at_least(0), required=True)

    sp = sub.add_parser("chain2-bound",
                        help="profile bound from a one-piece filling table")
    sp.add_argument("--delta", required=True, metavar="FILE",
                    help="file of integers delta(0..n), delta(0) = 0")
    sp.add_argument("--format", choices=("human", "json", "csv"), default="human")

    sp = sub.add_parser("disk-bound",
                        help="best table sum over a fixed number of pieces")
    sp.add_argument("--delta", required=True, metavar="FILE")
    sp.add_argument("--parts", type=_at_least(1), required=True)
    sp.add_argument("--format", choices=("human", "json", "csv"), default="human")

    return p
