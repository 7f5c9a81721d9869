"""Command-line surface: riquier, member, solve, prop1 and verify-witness.

Exit codes: 0 on success, 1 when a decision command answers "false",
2 on input errors.  ``main`` loads the system file once per call and hands
it to the subcommand.  ``--q`` is parsed once per system that ``load_system``
keeps: ``member`` and ``verify-witness`` on one file share the parsed q.

argv is read once against one table, ``_COMMANDS``, which gives each
subcommand its handler and its options; the help and usage texts are printed
from the same table.  The grammar:

- ``[--field F] SUBCOMMAND SYSTEM [OPTIONS]``: ``--field`` is read only before
  the subcommand, the subcommand's options before or after the system file;
- ``--opt value`` or ``--opt=value``, and a unique prefix of an option names
  it (``--cross`` is ``--cross-check``); when an option repeats, its last
  value wins, except ``--h``, which collects every value;
- a value that starts with '-' is taken by the option before it unless it has
  the shape of an option: ``-h``, or ``--`` and a lowercase letter.  After a
  prefix of an option such a value needs the ``=`` form, unless it is a
  negative number;
- ``--`` ends the options, and a negative number such as ``-1`` is a
  positional;
- ``-h`` or ``--help`` prints the help and exits 0; a usage error prints the
  usage line and an ``error:`` line to stderr and exits 2.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
from typing import Callable, List, NamedTuple, NoReturn, Optional, Tuple

from .closure import (
    Witness,
    membership_via_lemma1,
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
from .scalars import ZERO
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
    if args.point is not None:
        return parse_point(args.point, system.m, system.field_mode)
    if system.point is not None:
        return system.point
    return pick_regular_point(basis_denominators(basis), system.m)


_last_q = None  # the last --q parse, (system, text, q): see the module docstring


def _resolve_q(args, system: SystemFile):
    """The candidate q: --q, else the system file's 'q:' line."""
    global _last_q
    if args.q is not None:
        if _last_q is None or _last_q[0] is not system or _last_q[1] != args.q:
            _last_q = system, args.q, parse_operator(args.q, system.m, system.n, system.field_mode)
        return _last_q[2]
    if system.q is not None:
        return system.q
    raise WeylClosureError("no candidate q given (use --q or a 'q:' line)")


def _resolve_s(args, system: SystemFile, basis) -> int:
    """The order s: --s, else the system file's 's:' line, else the basis degree s0."""
    if args.s is not None:
        return args.s
    return system.s if system.s is not None else basis.s0


def _cmd_riquier(args, system: SystemFile) -> int:
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


def _cmd_member(args, system: SystemFile) -> int:
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
        # the completion keeps its last basis, so the lemma1 path reuses it
        lemma = membership_via_lemma1(q, system.generators)
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


def _cmd_solve(args, system: SystemFile) -> int:
    basis = complete_to_riquier_basis(system.generators, system.m, system.n)
    point = _resolve_point(args, system, basis)
    init = (parse_initial_conditions(args.init, system.m, system.n, system.field_mode)
            if args.init else {})
    order = args.order if args.order is not None else (
        system.truncation if system.truncation is not None else basis.s0 + 4)
    jet = formal_solve(basis, point, init, order)
    _emit(jet_to_json(jet))
    return 0


def _cmd_prop1(args, system: SystemFile) -> int:
    basis = complete_to_riquier_basis(system.generators, system.m, system.n)
    point = _resolve_point(args, system, basis)
    s = _resolve_s(args, system, basis)
    matrix = constraint_matrix(basis, s, point)
    _emit({
        "rows": len(matrix.rows),
        "columns": len(matrix.columns),
        "nullity": nullity(matrix.rows, len(matrix.columns), ZERO),
        "parametric_count": len(basis.parametric_up_to(s)),
        "s": s,
    })
    return 0


def _cmd_verify_witness(args, system: SystemFile) -> int:
    q = _resolve_q(args, system)
    w = parse_rational(args.w, system.m, system.field_mode)
    if not w.is_polynomial():
        raise WeylClosureError("witness w must be a polynomial")
    cofactors = [parse_operator(text, system.m, 1, system.field_mode) for text in args.h]
    valid = verify_witness(Witness(w, cofactors), q, system.generators)
    _emit({"valid": valid})
    return 0 if valid else 1


# -- the argv reader -------------------------------------------------------
#
# The table gives each subcommand its handler and its options; _read walks
# argv against it once, and _usage and _help print from it.

VALUE, INT, FLAG, REPEAT = "value", "int", "flag", "repeat"


class _Option:
    """One option: a VALUE, an INT, a FLAG or a REPEATed value."""

    __slots__ = ("name", "dest", "kind", "help", "required", "choices")

    def __init__(self, name: str, kind: str, help: str = "", required: bool = False,
                 choices: Tuple[str, ...] = ()):
        self.name, self.dest, self.kind = name, name[2:].replace("-", "_"), kind
        self.help, self.required, self.choices = help, required, choices

    def usage(self) -> str:
        if self.kind == FLAG:
            return self.name
        metavar = "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper()
        return f"{self.name} {metavar}"


class _Command(NamedTuple):
    handler: Callable
    help: str
    options: Tuple[_Option, ...]


_HELP = _Option("--help", FLAG, "show this help and exit")
_FIELD = _Option("--field", VALUE, "field mode used when the system file does not declare one",
                 choices=("real", "complex"))
_POINT = "base point coordinates, comma separated"
_COMMANDS = {
    "riquier": _Command(_cmd_riquier, "compute a Riquier basis and parametric derivatives", (
        _Option("--s", INT, "the order s of the parametric derivatives"),)),
    "member": _Command(_cmd_member, "decide Weyl-closure membership with a witness", (
        _Option("--q", VALUE, "candidate operator row"),
        _Option("--cross-check", FLAG, "also run the independent decision paths and compare"))),
    "solve": _Command(_cmd_solve, "compute a truncated formal solution jet", (
        _Option("--point", VALUE, _POINT),
        _Option("--init", VALUE, "parametric initial values, e.g. '1=1, D=0'"),
        _Option("--order", INT, "truncation order T"))),
    "prop1": _Command(_cmd_prop1, "jet-constraint matrix dimensions and nullity", (
        _Option("--point", VALUE, _POINT),
        _Option("--s", INT, "the order s of the constraint matrix"))),
    "verify-witness": _Command(_cmd_verify_witness, "check a witness identity exactly", (
        _Option("--q", VALUE, "candidate operator row"),
        _Option("--w", VALUE, "witness polynomial", required=True),
        _Option("--h", REPEAT, "cofactor operator (repeat once per generator)"))),
}

# The option strings of each level (None: before the subcommand), help first,
# and the names of the options that take a value, at any level: a value that
# follows one of them is joined to it even where the level has no such option.
_LOOKUP = {name: {"-h": _HELP, "--help": _HELP, **{o.name: o for o in options}}
           for name, options in [(None, (_FIELD,))]
           + [(name, command.options) for name, command in _COMMANDS.items()]}
_TAKES_VALUE = frozenset(o.name for options in _LOOKUP.values()
                         for o in options.values() if o.kind != FLAG)


def _ambiguous(lookup: dict) -> dict:
    """The prefixes of more than one option that name none, with those options."""
    matches: dict = {}
    for option in lookup:
        for k in range(2, len(option)):
            matches.setdefault(option[:k], []).append(option)
    return {prefix: m for prefix, m in matches.items() if len(m) > 1 and prefix not in lookup}


_AMBIGUOUS = {level: _ambiguous(lookup) for level, lookup in _LOOKUP.items()}
_LOOKS_LIKE_AN_OPTION = re.compile(r"-h$|--[a-z]")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(command: Optional[str]) -> str:
    if command is None:
        return (f"usage: weylclosure [-h] [{_FIELD.usage()}] "
                f"{{{','.join(_COMMANDS)}}} ...")
    spec = _COMMANDS[command]
    options = " ".join(o.usage() if o.required else f"[{o.usage()}]" for o in spec.options)
    return f"usage: weylclosure {command} [-h] {options} system"


def _help(command: Optional[str]) -> str:
    if command is None:
        rows = [("commands:", None)] + [(f"  {name}", c.help) for name, c in _COMMANDS.items()]
        intro, options = ("Exact Weyl-closure membership, Riquier bases and formal jet "
                          "solutions."), (_FIELD,)
    else:
        rows = [("arguments:", None), ("  system", "the system file")]
        intro, options = _COMMANDS[command].help, _COMMANDS[command].options
    rows += [("", None), ("options:", None), ("  -h, --help", _HELP.help)]
    rows += [(f"  {o.usage()}", o.help + (" (required)" if o.required else ""))
             for o in options]
    width = max(len(left) for left, text in rows if text is not None) + 2
    lines = [left if text is None else f"{left:<{width}}{text}" for left, text in rows]
    return f"{_usage(command)}\n\n{intro}\n\n" + "\n".join(lines) + "\n"


def _fail(command: Optional[str], message: str) -> NoReturn:
    prog = "weylclosure" if command is None else f"weylclosure {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _check_choice(command: Optional[str], name: str, value: str, choices) -> None:
    if value not in choices:
        _fail(command, f"argument {name}: invalid choice: {value!r} "
                       f"(choose from {', '.join(map(repr, choices))})")


def _classify(token: str, lookup: dict):
    """How a token outside a value reads: None for a positional, else (the
    option, or None when this level has no such option; the value given after
    '=', or None)."""
    if token[:1] != "-" or token == "-":
        return None
    option = lookup.get(token)
    if option is not None:
        return option, None
    name, equals, value = token.partition("=")
    if equals and name in lookup:
        return lookup[name], value
    if token[1] == "-":  # a prefix of one long option names it: _read refused the others
        for option in lookup:
            if option.startswith(name):
                return lookup[option], value if equals else None
    elif token[1] == "h":  # -hVALUE
        return _HELP, token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _read(argv: List[str], command: Optional[str], values: dict, extras: List[str]) -> None:
    """Read argv at one level: before the subcommand (command None), where
    the first positional is the subcommand and the rest its tokens, or a
    subcommand's own, whose one positional is the system file."""
    lookup = _LOOKUP[command]
    # up to the first '--', a value that starts with '-' but has not the shape
    # of an option is joined to the option name before it, as if by '='; and
    # an ambiguous prefix fails before any token is taken
    ambiguous = _AMBIGUOUS[command]
    tokens: List[str] = []
    for k, token in enumerate(argv):
        if token == "--":
            scanned = len(tokens)
            tokens += argv[k:]
            break
        if (tokens and tokens[-1] in _TAKES_VALUE and token[:1] == "-"
                and not _LOOKS_LIKE_AN_OPTION.match(token)):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    else:
        scanned = len(tokens)
    for token in tokens[:scanned]:
        matches = token[:2] == "--" and ambiguous.get(token.partition("=")[0])
        if matches:
            _fail(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    ended, count, i, system_at = False, len(tokens), 0, None
    while i < count:
        token = tokens[i]
        i += 1
        if ended or token == "--":
            if command is not None and not ended:
                # '--' ends the options; it is kept as an extra unless it
                # stands next to the system file
                ended = True
                if system_at not in (None, i - 2):
                    extras.append(token)
                continue
            found = None
        else:
            found = _classify(token, lookup)
        if found is None:
            if command is None:
                _check_choice(None, "command", token, _COMMANDS)
                spec = _COMMANDS[token]
                values.update(command=token, func=spec.handler)
                values.update((o.dest, {REPEAT: [], FLAG: False}.get(o.kind))
                              for o in spec.options)
                _read(tokens[i:], token, values, extras)
                return
            if system_at is None:
                values["system"], system_at = token, i - 1
            else:
                extras.append(token)
            continue
        option, value = found
        if option is None:
            extras.append(token)
            continue
        if option.kind == FLAG:
            if value is not None:
                # -hh is -h twice, as a row of one-letter flags
                rest = value.lstrip("h") if token[1] != "-" else value
                if rest or not value:
                    names = "-h/--help" if option is _HELP else option.name
                    _fail(command, f"argument {names}: ignored explicit argument {rest!r}")
            if option is _HELP:
                sys.stdout.write(_help(command))
                raise SystemExit(0)
            values[option.dest] = True
            continue
        if value is None:
            # the next token, unless it is '--' or reads as an option
            if i < count and tokens[i] != "--" and _classify(tokens[i], lookup) is None:
                value, i = tokens[i], i + 1
            else:
                _fail(command, f"argument {option.name}: expected one argument")
        if option.kind == INT:
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"argument {option.name}: invalid int value: {value!r}")
        elif option.choices:
            _check_choice(command, option.name, value, option.choices)
        if option.kind == REPEAT:
            values[option.dest].append(value)
        else:
            values[option.dest] = value
    if command is not None:
        missing = [] if system_at is not None else ["system"]
        missing += [o.name for o in _COMMANDS[command].options
                    if o.required and values[o.dest] is None]
        if missing:
            _fail(command, f"the following arguments are required: {', '.join(missing)}")


def parse_argv(argv: List[str]) -> SimpleNamespace:
    """The handler and the values that argv gives; SystemExit(2) on a usage
    error, SystemExit(0) after printing the help."""
    values: dict = {"field": "real"}
    extras: List[str] = []
    _read(argv, None, values, extras)
    if "command" not in values:
        _fail(None, "the following arguments are required: command")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args, load_system(args.system, args.field))
    except (WeylClosureError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
