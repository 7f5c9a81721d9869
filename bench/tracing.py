"""Spans and call counts around the library's public functions, from outside.

``Tracer.install()`` rebinds every attribute of every ``weylclosure`` module
that is one of the traced function objects (modules import by name, so
``riquier.reduce_full`` and ``closure.reduce_full`` are both rebound) and
patches ``RationalFunction.__init__`` on the class.  ``uninstall()`` puts the
originals back.

A span is (name, start, end, parent span, op index).  Spans stay in memory
until ``write_spans``.  Self time is a span's duration minus the time its
child spans cover; inclusive time is only counted for the outermost call of
a function, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

TRACED = [
    "riquier.complete_to_riquier_basis",
    "ranking.reduce_full",
    "operators.scalar_operator_product",
    "operators.left_multiply_by_d",
    "operators.apply_single_d",
    "polynomials.RationalFunction",
    "polynomials.poly_lcm",
    "closure.weyl_closure_member",
    "closure.verify_witness",
    "closure.membership_via_lemma1",
    "closure.oracle_division_member_1d",
    "linalg.row_echelon",
    "jets.formal_solve",
    "jets.constraint_matrix",
    "jets.constraint_nullspace",
    "jets.pick_regular_point",
    "parsing.parse_operator",
    "formatting.format_operator",
    "systemio.load_system",
    "cli.main",
]

COMPLETION = "riquier.complete_to_riquier_basis"


class Stat:
    __slots__ = ("calls", "s", "self_s", "in_completion_s", "open")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.in_completion_s = 0.0  # inclusive time spent under a completion
        self.open = 0               # calls of this function now on the stack


class Tracer:
    def __init__(self):
        self.names: list = []
        self.stats: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        # completion properties: (input key, basis size, has an order-0 head)
        self.completions: list = []
        self.reductions = 0
        self.zero_reductions = 0
        self._stack: list = []  # [span index, child seconds] per open call
        self._restore: list = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        completion = self.stats.setdefault(COMPLETION, Stat())
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        on_return = {
            COMPLETION: self._on_completion,
            "ranking.reduce_full": self._on_reduction,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            frame = [index, 0.0]
            stack.append(frame)
            stat.open += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(args, result)
                return result
            finally:
                end = clock()
                stat.open -= 1
                stack.pop()
                duration = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if not stat.open:
                    stat.s += duration
                    if completion.open and name != COMPLETION:
                        stat.in_completion_s += duration
                if stack:
                    stack[-1][1] += duration

        return traced

    def _on_completion(self, args, basis) -> None:
        gens = list(args[0])
        key = (gens[0].m, gens[0].n, tuple(gens)) if gens else None
        has_unit = any(head.order == 0 for head in basis.heads)
        self.completions.append((key, len(basis.elements), has_unit))

    def _on_reduction(self, args, trace) -> None:
        self.reductions += 1
        if trace.normal_form.is_zero():
            self.zero_reductions += 1

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "weylclosure" or name.startswith("weylclosure.")]
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            module = importlib.import_module(f"weylclosure.{module_name}")
            original = getattr(module, attr)
            if isinstance(original, type):
                init = original.__init__
                original.__init__ = self._wrap(qualified, init)
                self._restore.append((original, "__init__", init))
                continue
            wrapped = self._wrap(qualified, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span, times in seconds from the first span."""
        origin = min(self.span_start, default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                handle.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - origin:.9f}\t{self.span_end[i] - origin:.9f}\n")
