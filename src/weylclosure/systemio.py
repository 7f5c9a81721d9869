"""System-file loading and JSON-friendly serialization of results.

A system file is UTF-8 text with ``field:``, ``vars:``, ``unknowns:`` and
``row:`` lines, plus optional ``q:``, ``point:``, ``s:`` and ``T:`` lines.
Blank lines and ``#`` comments are ignored.  All emitted values are exact
strings; no floating point survives serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import InvalidInput
from .formatting import format_derivative, format_scalar
from .operators import Derivative, Jet, OperatorVector
from .parsing import parse_operator, parse_rational
from .scalars import Scalar


@dataclass
class SystemFile:
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
    value = parse_rational(text.strip(), m, field_mode)
    if not value.is_polynomial() or not value.num.is_constant():
        raise InvalidInput(f"expected a constant, got {text!r}")
    return value.num.constant_value()


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
        op = parse_operator(lhs.strip(), m, n, field_mode)
        if len(op.terms) != 1:
            raise InvalidInput(f"left side of {chunk!r} must be a single derivative")
        (derivative, coeff), = op.terms.items()
        if coeff != 1:
            raise InvalidInput(f"left side of {chunk!r} must have coefficient 1")
        if derivative in init:
            raise InvalidInput(
                f"initial value given twice for {format_derivative(derivative, m, n)}")
        init[derivative] = parse_scalar_value(rhs, m, field_mode)
    return init


def load_system(path: str, default_field: str = "real") -> SystemFile:
    field_mode = default_field
    m: Optional[int] = None
    n = 1
    rows: List[str] = []
    extras: Dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise InvalidInput(f"{path}:{lineno}: expected 'key: value'")
            key, value = (part.strip() for part in line.split(":", 1))
            if key == "field":
                if value not in ("real", "complex"):
                    raise InvalidInput(f"{path}:{lineno}: unknown field mode {value!r}")
                field_mode = value
            elif key == "vars":
                m = int(value)
            elif key == "unknowns":
                n = int(value)
            elif key == "row":
                rows.append(value)
            elif key in ("q", "point", "s", "T"):
                extras[key] = value
            else:
                raise InvalidInput(f"{path}:{lineno}: unknown key {key!r}")
    if m is None:
        raise InvalidInput(f"{path}: missing 'vars:' line")
    if m < 1 or n < 1:
        raise InvalidInput(f"{path}: vars and unknowns must be positive")
    generators = [parse_operator(text, m, n, field_mode) for text in rows]
    system = SystemFile(field_mode, m, n, generators)
    if "q" in extras:
        system.q = parse_operator(extras["q"], m, n, field_mode)
    if "point" in extras:
        system.point = parse_point(extras["point"], m, field_mode)
    if "s" in extras:
        system.s = int(extras["s"])
    if "T" in extras:
        system.truncation = int(extras["T"])
    return system


# -- serialization helpers -------------------------------------------------


def multi_index_key(alpha) -> str:
    return ",".join(str(a) for a in alpha)


def jet_to_json(jet: Jet) -> dict:
    components: Dict[str, Dict[str, str]] = {}
    for i in range(1, jet.n + 1):
        entries = {
            multi_index_key(d.alpha): format_scalar(v)
            for d, v in sorted(jet.values.items(), key=lambda kv: kv[0].rank_key())
            if d.component == i
        }
        components[f"u{i}"] = entries
    return {
        "point": [format_scalar(c) for c in jet.base_point],
        "order": jet.order,
        "derivative_values": components,
    }
