"""The argparse parser that ``weylclosure.cli`` used before its own argv reader.

``build_parser`` and ``_attached`` are kept here, unchanged, as the reference
that ``test_cli_reader.py`` compares the reader with: the reader must accept,
refuse and print help for the same argvs, and set the same attributes.
"""

import argparse
import functools
import re
from typing import List

from weylclosure.cli import (_cmd_member, _cmd_prop1, _cmd_riquier, _cmd_solve,
                             _cmd_verify_witness)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylclosure",
        description="Exact Weyl-closure membership, Riquier bases and formal jet solutions.",
    )
    parser.add_argument("--field", choices=("real", "complex"), default="real",
                        help="field mode used when the system file does not declare one")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("riquier", help="compute a Riquier basis and parametric derivatives")
    p.add_argument("system")
    p.add_argument("--s", type=int, default=None)
    p.set_defaults(func=_cmd_riquier)

    p = sub.add_parser("member", help="decide Weyl-closure membership with a witness")
    p.add_argument("system")
    p.add_argument("--q", default=None, help="candidate operator row")
    p.add_argument("--cross-check", action="store_true",
                   help="also run the independent decision paths and compare")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("solve", help="compute a truncated formal solution jet")
    p.add_argument("system")
    p.add_argument("--point", default=None, help="base point coordinates, comma separated")
    p.add_argument("--init", default=None,
                   help="parametric initial values, e.g. '1=1, D=0'")
    p.add_argument("--order", type=int, default=None, help="truncation order T")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("prop1", help="jet-constraint matrix dimensions and nullity")
    p.add_argument("system")
    p.add_argument("--point", default=None)
    p.add_argument("--s", type=int, default=None)
    p.set_defaults(func=_cmd_prop1)

    p = sub.add_parser("verify-witness", help="check a witness identity exactly")
    p.add_argument("system")
    p.add_argument("--q", default=None)
    p.add_argument("--w", required=True, help="witness polynomial")
    p.add_argument("--h", action="append", default=[],
                   help="cofactor operator (repeat once per generator)")
    p.set_defaults(func=_cmd_verify_witness)
    return parser


# The options that take a value.  argparse reads a value that starts with '-'
# ("--point -1/2", "--q -D^2") as an option, so such a value is attached to
# its option first, as if written "--point=-1/2", unless it has the shape of
# an option itself: "-h", or "--" and a lowercase letter, as every long option
# of the CLI has.  An option with nothing after it is still an error.
_VALUE_OPTIONS = frozenset({"--field", "--s", "--q", "--point", "--init", "--order", "--w", "--h"})
_OPTION_SHAPE = re.compile(r"-h$|--[a-z]")


def _attached(argv: List[str]) -> List[str]:
    """argv with each value that starts with '-' attached to its option by '='."""
    out: List[str] = []
    for arg in argv:
        if (out and out[-1] in _VALUE_OPTIONS and arg.startswith("-")
                and not _OPTION_SHAPE.match(arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.lru_cache(maxsize=None)
def parser() -> argparse.ArgumentParser:
    """The parser, built on the first call only: parsing does not change it."""
    return build_parser()


def parse(argv: List[str]) -> argparse.Namespace:
    """What ``cli.main`` read from argv: the namespace, or SystemExit."""
    return parser().parse_args(_attached(list(argv)))
