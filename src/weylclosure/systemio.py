"""System-file loading and JSON-friendly serialization of results.

A system file is UTF-8 text with ``field:``, ``vars:``, ``unknowns:`` and
``row:`` lines, plus optional ``q:``, ``point:``, ``s:`` and ``T:`` lines.
Only ``row:`` may repeat; ``vars:``, ``unknowns:``, ``s:`` and ``T:`` take
integers.  Blank lines and ``#`` comments are ignored.  The text may start
with a byte-order mark, as some editors write it; a mark anywhere else is
part of its line.  All emitted values are exact
strings; no floating point survives serialization.

The process parses each system file once while it keeps asking about it:
``load_system`` reads the whole file on every call, and when the text and
the default field are those of its last call, it returns that same
``SystemFile`` object without parsing.  So a returned ``SystemFile`` is
shared and read-only, as a ``RiquierBasis`` from the completion is, and the
CLI commands on one file hand ``complete_to_riquier_basis`` the very same
generators.  The memory is one entry: parsing another text replaces it, and
a text that fails to parse is not kept.  The values of ``point:``,
``--point`` and ``--init`` are read once, by ``parsing.parse_constant`` and
``parse_derivative``, into scalars and derivatives without an operator or a
rational function, and ``jet_to_json`` reads a jet's values over Delta_T in
ranking order, with no sort.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import InvalidInput
from .formatting import format_derivative, format_scalar
from .operators import Derivative, Jet, OperatorVector, derivatives_up_to
from .parsing import parse_constant, parse_derivative, parse_operator
from .scalars import Scalar, _past_digit_limit


@dataclass
class SystemFile:
    """A parsed system file.  One from ``load_system`` is shared with every
    later load of the same text, so it is read-only: change neither its
    fields nor its list of generators."""

    field_mode: str
    m: int
    n: int
    generators: List[OperatorVector]
    q: Optional[OperatorVector] = None
    point: Optional[Tuple[Scalar, ...]] = None
    s: Optional[int] = None
    truncation: Optional[int] = None


def parse_scalar_value(text: str, m: int, field_mode: str) -> Scalar:
    """Parse a constant like '1/2' or '1 + i' into an exact scalar."""
    value = parse_constant(text.strip(), m, field_mode)
    if value is None:
        raise InvalidInput(f"expected a constant, got {text!r}")
    return value


def parse_point(text: str, m: int, field_mode: str) -> Tuple[Scalar, ...]:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise InvalidInput(f"empty coordinate in point {text!r}")
    if len(parts) != m:
        raise InvalidInput(f"expected {m} coordinate(s), got {len(parts)}")
    return tuple(parse_scalar_value(part, m, field_mode) for part in parts)


def parse_initial_conditions(text: str, m: int, n: int,
                             field_mode: str) -> Dict[Derivative, Scalar]:
    """Parse 'D=1, 1=2' style assignments of parametric derivative values."""
    init: Dict[Derivative, Scalar] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InvalidInput(f"initial condition {chunk!r} is missing '='")
        lhs, rhs = chunk.split("=", 1)
        derivative = parse_derivative(lhs.strip(), m, n, field_mode)
        if derivative is None:  # parsed again as an operator, to say what it is instead
            if len(parse_operator(lhs.strip(), m, n, field_mode).terms) != 1:
                raise InvalidInput(f"left side of {chunk!r} must be a single derivative")
            raise InvalidInput(f"left side of {chunk!r} must have coefficient 1")
        if derivative in init:
            raise InvalidInput(
                f"initial value given twice for {format_derivative(derivative, m, n)}")
        init[derivative] = parse_scalar_value(rhs, m, field_mode)
    return init


# The last load, (text, default field) and its system, or None: one entry,
# so the process holds at most one parsed system (see load_system).
_last: Optional[Tuple[Tuple[str, str], SystemFile]] = None


def load_system(path: str, default_field: str = "real") -> SystemFile:
    """Read and parse a system file.

    The file is read in full on every call, so a missing or unreadable file
    raises OSError.  When its text and ``default_field`` are those of the
    last call, that call's ``SystemFile`` is returned again, shared and
    read-only; otherwise the text is parsed and becomes the one kept entry.
    """
    global _last
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    source = (text, default_field)
    if _last is not None and _last[0] == source:
        return _last[1]
    _last = None  # the kept system is released before another is parsed
    rows: List[str] = []
    values: Dict[str, object] = {}
    # reading in text mode turned '\r\n' and '\r' into '\n', so these are the
    # lines that iterating the file gives; str.splitlines would also break at
    # form feeds and other separators, and shift the line numbers
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InvalidInput(f"{path}:{lineno}: expected 'key: value'")
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "row":
            rows.append(value)
            continue
        if key in values:
            raise InvalidInput(f"{path}:{lineno}: duplicate key {key!r}")
        if key == "field" and value not in ("real", "complex"):
            raise InvalidInput(f"{path}:{lineno}: unknown field mode {value!r}")
        if key in ("vars", "unknowns", "s", "T"):
            try:
                value = int(value)
            except ValueError:  # a run of digits that int() refuses is past its digit limit
                raise InvalidInput(f"{path}:{lineno}: " + (
                    _past_digit_limit(key) if re.fullmatch(r"[+-]?\d+", value) else
                    f"{key} must be an integer, got {value!r}")) from None
        elif key not in ("field", "q", "point"):
            raise InvalidInput(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    if "vars" not in values:
        raise InvalidInput(f"{path}: missing 'vars:' line")
    field_mode = values.get("field", default_field)
    m, n = values["vars"], values.get("unknowns", 1)
    if m < 1 or n < 1:
        raise InvalidInput(f"{path}: vars and unknowns must be positive")
    generators = [parse_operator(row, m, n, field_mode) for row in rows]
    system = SystemFile(field_mode, m, n, generators, s=values.get("s"),
                        truncation=values.get("T"))
    if "q" in values:
        system.q = parse_operator(values["q"], m, n, field_mode)
    if "point" in values:
        system.point = parse_point(values["point"], m, field_mode)
    _last = source, system
    return system


# -- serialization helpers -------------------------------------------------


def jet_to_json(jet: Jet) -> dict:
    """The jet as strings: the value of every derivative of Delta_T, zeros
    included, in ranking order within each component."""
    components: Dict[str, Dict[str, str]] = {f"u{i}": {} for i in range(1, jet.n + 1)}
    for d in derivatives_up_to(jet.m, jet.n, jet.order):
        components[f"u{d.component}"][",".join(map(str, d.alpha))] = format_scalar(jet.value(d))
    return {
        "point": [format_scalar(c) for c in jet.base_point],
        "order": jet.order,
        "derivative_values": components,
    }
