"""Command-line surface: riquier, member, solve, prop1 and verify-witness.

Exit codes: 0 on success, 1 when a decision command answers "false",
2 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import List, Optional

from .closure import (
    Witness,
    _lemma1_decide,
    oracle_division_member_1d,
    verify_witness,
    weyl_closure_member,
)
from .errors import WeylClosureError
from .formatting import format_derivative, format_operator, format_polynomial
from .jets import (
    basis_denominators,
    constraint_matrix,
    formal_solve,
    pick_regular_point,
)
from .linalg import nullity
from .parsing import parse_operator, parse_rational
from .riquier import complete_to_riquier_basis
from .systemio import (
    SystemFile,
    jet_to_json,
    load_system,
    parse_initial_conditions,
    parse_point,
)


def _emit(document: dict) -> None:
    json.dump(document, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _resolve_point(args, system: SystemFile, basis):
    if getattr(args, "point", None):
        return parse_point(args.point, system.m, system.field_mode)
    if system.point is not None:
        return system.point
    return pick_regular_point(basis_denominators(basis), system.m)


def _resolve_q(args, system: SystemFile):
    """The candidate q: --q, else the system file's 'q:' line."""
    if args.q is not None:
        return parse_operator(args.q, system.m, system.n, system.field_mode)
    if system.q is not None:
        return system.q
    raise WeylClosureError("no candidate q given (use --q or a 'q:' line)")


def _resolve_s(args, system: SystemFile, basis) -> int:
    """The order s: --s, else the system file's 's:' line, else the basis degree s0."""
    if args.s is not None:
        return args.s
    return system.s if system.s is not None else basis.s0


def _cmd_riquier(args) -> int:
    system = load_system(args.system, args.field)
    basis = complete_to_riquier_basis(system.generators, system.m, system.n)
    s = _resolve_s(args, system, basis)
    _emit({
        "basis": [format_operator(p) for p in basis.elements],
        "s0": basis.s0,
        "parametric": [
            format_derivative(d, system.m, system.n)
            for d in basis.parametric_up_to(s)
        ],
        "s": s,
    })
    return 0


def _cmd_member(args) -> int:
    system = load_system(args.system, args.field)
    q = _resolve_q(args, system)
    result = weyl_closure_member(q, system.generators)
    document = {
        "member": result.member,
        "normal_form": format_operator(result.normal_form),
        "witness": None,
    }
    if result.witness is not None:
        document["witness"] = {
            "w": format_polynomial(result.witness.w),
            "cofactors": [format_operator(h) for h in result.witness.cofactors],
        }
    if args.cross_check:
        # the completion is deterministic, so the lemma1 path reuses the basis
        lemma = _lemma1_decide(q, result.basis)
        document["lemma1_member"] = lemma
        agree = lemma == result.member
        if system.m == 1 and system.n == 1 and len(system.generators) == 1:
            euclid = oracle_division_member_1d(q, system.generators[0])
            document["euclidean_member"] = euclid
            agree = agree and euclid == result.member
        if not agree:
            _emit(document)
            print("cross-check disagreement", file=sys.stderr)
            return 2
    _emit(document)
    return 0 if result.member else 1


def _cmd_solve(args) -> int:
    system = load_system(args.system, args.field)
    basis = complete_to_riquier_basis(system.generators, system.m, system.n)
    point = _resolve_point(args, system, basis)
    init = {}
    if args.init:
        init = parse_initial_conditions(args.init, system.m, system.n,
                                        system.field_mode)
    if args.order is not None:
        order = args.order
    elif system.truncation is not None:
        order = system.truncation
    else:
        order = basis.s0 + 4
    jet = formal_solve(basis, point, init, order)
    _emit(jet_to_json(jet))
    return 0


def _cmd_prop1(args) -> int:
    system = load_system(args.system, args.field)
    basis = complete_to_riquier_basis(system.generators, system.m, system.n)
    point = _resolve_point(args, system, basis)
    s = _resolve_s(args, system, basis)
    matrix = constraint_matrix(basis, s, point)
    _emit({
        "rows": len(matrix.rows),
        "columns": len(matrix.columns),
        "nullity": nullity(matrix.rows, len(matrix.columns)),
        "parametric_count": len(basis.parametric_up_to(s)),
        "s": s,
    })
    return 0


def _cmd_verify_witness(args) -> int:
    system = load_system(args.system, args.field)
    q = _resolve_q(args, system)
    w = parse_rational(args.w, system.m, system.field_mode)
    if not w.is_polynomial():
        raise WeylClosureError("witness w must be a polynomial")
    cofactors = [
        parse_operator(text, system.m, 1, system.field_mode) for text in args.h
    ]
    valid = verify_witness(Witness(w, cofactors), q, system.generators)
    _emit({"valid": valid})
    return 0 if valid else 1


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
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg in _VALUE_OPTIONS and i + 1 < len(argv) and argv[i + 1].startswith("-")
                and not _OPTION_SHAPE.match(argv[i + 1])):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call only: parsing does not change it."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(_attached(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (WeylClosureError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
