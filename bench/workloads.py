"""The benchmark's three workloads: input generation, the timed op, and its check.

Op ``i`` starts from a base instance drawn from
``random.Random(f"<workload>/<i>")``.  The workload's key (``<seed>.<pass>``)
then draws, from ``random.Random(f"<workload>/<key>/<i>")``, a change of variables
``x_j -> l_j x_j, D_j -> D_j / l_j`` and a constant factor per generator,
and applies them (``Rescale``).  That map is an automorphism of the Weyl
algebra: it keeps members members, and every completion keeps its steps, so
each key gets different inputs of nearly the same difficulty.  The cost of a
completion has a heavy tail, and without this the run-to-run spread would
be set by how many slow instances a seed happens to draw.  Op ``i`` is the
same whatever ran before it.  An op is one verdict (``decide``), one jet job
(``jets``) or one CLI call (``cli``).

Each workload object has:

- ``make_op(index)``: build the inputs of op ``index`` (untimed, set-up);
- ``run(op)``: the timed call through the library's public API;
- ``check(op, output)``: an untimed correctness gate that returns ``None``
  or a message saying what is wrong; its reference never comes from the
  code path being timed;
- ``gen_key(op)``: the generator set the op completes, for
  ``input_repeat_frac``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter
from fractions import Fraction
from typing import List, Optional

import weylclosure as wc
from weylclosure import cli as wc_cli
from weylclosure import Derivative, OperatorVector, Polynomial, RationalFunction

# -- random inputs shaped like the acceptance sweeps -------------------------


def random_polynomial(rng: random.Random, m: int, degree: int, terms: int) -> Polynomial:
    result = Polynomial.zero(m)
    for _ in range(terms):
        mono = [0] * m
        for _ in range(rng.randint(0, degree)):
            mono[rng.randrange(m)] += 1
        result = result + Polynomial.monomial(tuple(mono), Fraction(rng.randint(-3, 3)), m)
    return result


def random_operator(rng: random.Random, m: int, n: int, order: int,
                    degree: int, terms: int) -> OperatorVector:
    built = OperatorVector.zero(m, n)
    for _ in range(rng.randint(1, terms)):
        alpha = [0] * m
        for _ in range(rng.randint(0, order)):
            alpha[rng.randrange(m)] += 1
        coeff = RationalFunction(random_polynomial(rng, m, degree, 2))
        built = built + OperatorVector.from_derivative(
            Derivative(rng.randint(1, n), tuple(alpha)), m, n, coeff)
    return built


def random_nonzero_operator(rng: random.Random, m: int, n: int, order: int,
                            degree: int, terms: int) -> OperatorVector:
    while True:
        op = random_operator(rng, m, n, order, degree, terms)
        if not op.is_zero():
            return op


def constructed_member(rng: random.Random, gens: List[OperatorVector]):
    """q = sum_j a_j * p_j with random scalar a_j: a member by construction."""
    m, n = gens[0].m, gens[0].n
    q = OperatorVector.zero(m, n)
    multipliers = []
    for g in gens:
        a = random_operator(rng, m, 1, order=1, degree=1, terms=1)
        multipliers.append(a)
        q = q + wc.scalar_operator_product(a, g)
    return q, multipliers


# (m, n, number of generators) of every workload's systems, taken in turn.
# Two generators only with m = 1: see bench/README.md for the tail this avoids.
SYSTEM_CLASSES = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 2, 1)]


SCALES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)]


class Rescale:
    """x_j -> l_j x_j, D_j -> D_j / l_j, with random l_j, on polynomial rows."""

    def __init__(self, rng: random.Random, m: int):
        self.scales = [rng.choice(SCALES) for _ in range(m)]

    def __call__(self, p: OperatorVector, factor=Fraction(1)) -> OperatorVector:
        terms = {}
        for d, coeff in p.terms.items():
            c = factor
            for scale, a in zip(self.scales, d.alpha):
                c /= scale ** a
            monomials = {}
            for mono, value in coeff.num.terms.items():
                v = c * value
                for scale, k in zip(self.scales, mono):
                    v *= scale ** k
                monomials[mono] = v
            terms[d] = RationalFunction(Polynomial(monomials, p.m))
        return OperatorVector(terms, p.m, p.n)


def base_system(base: random.Random, seeded: random.Random, m: int, n: int,
                count: int, degree: int):
    """Generators drawn from ``base``, rescaled by ``seeded``; also (rescale, factors)."""
    gens = [random_nonzero_operator(base, m, n, order=2, degree=degree, terms=2)
            for _ in range(count)]
    rescale = Rescale(seeded, m)
    factors = [seeded.choice(SCALES) for _ in gens]
    return gens, rescale, factors


def gen_key(gens: List[OperatorVector]):
    return (gens[0].m, gens[0].n, tuple(gens))


# -- decide --------------------------------------------------------------------


class Decide:
    """``weyl_closure_member(q, gens)`` on instances sized like acceptance 3.

    Generators have order <= 2 and coefficient degree <= 2.  Pairs of ops
    cycle through ``SYSTEM_CLASSES``; even ops have a constructed member
    q, odd ops a random q.  Every op draws fresh generators, so no work is
    shared between ops.
    """

    def __init__(self, key: str):
        self.key = key

    def make_op(self, index: int):
        base = random.Random(f"decide/{index}")
        m, n, count = SYSTEM_CLASSES[(index // 2) % len(SYSTEM_CLASSES)]
        gens, rescale, factors = base_system(
            base, random.Random(f"decide/{self.key}/{index}"), m, n, count, degree=2)
        constructed = index % 2 == 0
        if constructed:
            q, _ = constructed_member(base, gens)
        else:
            q = random_operator(base, m, n, order=2, degree=2, terms=2)
        return {"q": rescale(q), "constructed": constructed,
                "gens": [rescale(g, c) for g, c in zip(gens, factors)]}

    def run(self, op):
        return wc.weyl_closure_member(op["q"], op["gens"])

    def check(self, op, result) -> Optional[str]:
        q, gens = op["q"], op["gens"]
        if op["constructed"] and not result.member:
            return "constructed member answered no"
        if result.member and not wc.verify_witness(result.witness, q, gens):
            return "witness rejected by verify_witness"
        if q.m == 1 and q.n == 1 and len(gens) == 1:
            if wc.oracle_division_member_1d(q, gens[0]) != result.member:
                return "disagrees with Euclidean division"
        return None

    def gen_key(self, op):
        return gen_key(op["gens"])


# -- jets ----------------------------------------------------------------------


class Jets:
    """Completion, constraint matrix, nullspace and formal solutions to order T.

    Systems are sized like acceptance 6: generators of order <= 2 and
    coefficient degree <= 1, in ``SYSTEM_CLASSES``.  Each nullspace jet at
    ``s = s0 + 1..2`` is extended by ``formal_solve`` to ``T = s0 + 4``.
    """

    extra_order = 4

    def __init__(self, key: str):
        self.key = key

    def make_op(self, index: int):
        base = random.Random(f"jets/{index}")
        m, n, count = SYSTEM_CLASSES[index % len(SYSTEM_CLASSES)]
        gens, rescale, factors = base_system(
            base, random.Random(f"jets/{self.key}/{index}"), m, n, count, degree=1)
        return {"gens": [rescale(g, c) for g, c in zip(gens, factors)],
                "s_extra": base.randint(1, 2), "index": index}

    def run(self, op):
        gens = op["gens"]
        m, n = gens[0].m, gens[0].n
        basis = wc.complete_to_riquier_basis(gens, m, n)
        point = wc.pick_regular_point(wc.basis_denominators(basis), m)
        s = basis.s0 + op["s_extra"]
        order = basis.s0 + self.extra_order
        jets = wc.constraint_nullspace(wc.constraint_matrix(basis, s, point))
        extended = []
        for jet in jets:
            init = {d: jet.value(d) for d in basis.parametric_up_to(order)
                    if d in jet.values}
            extended.append(wc.formal_solve(basis, point, init, order))
        return {"basis": basis, "s": s, "jets": jets, "extended": extended}

    def check(self, op, out) -> Optional[str]:
        basis, s = out["basis"], out["s"]
        if len(out["jets"]) != len(basis.parametric_up_to(s)):
            return "nullity differs from the parametric count"
        for jet, big in zip(out["jets"], out["extended"]):
            if big.truncate(s) != jet:
                return "formal_solve jet does not truncate to its nullspace jet"
        if not out["extended"]:
            return None
        # apply_to_jet is linear in the jet, so one random combination of the
        # extended jets stands for all of them (and costs one call per generator)
        rng = random.Random(f"jets-check/{self.key}/{op['index']}")
        first = out["extended"][0]
        values: dict = {}
        for big in out["extended"]:
            c = Fraction(rng.randint(1, 10**6))
            for d, v in big.values.items():
                values[d] = values.get(d, 0) + c * v
        combined = wc.Jet(first.base_point, first.order, first.m, first.n, values)
        for g in op["gens"]:
            if not wc.apply_to_jet(g, combined).is_zero():
                return "an original generator does not annihilate the jets"
        return None

    def gen_key(self, op):
        return gen_key(op["gens"])


# -- cli -----------------------------------------------------------------------


class Ops:
    """Expected operator strings, compared after parsing rather than as text."""

    def __init__(self, *texts):
        self.texts = texts


PRESENT = object()  # expected field value: present and not null

# Hand-written systems with expected outputs from the README, the test suite
# and the acceptance criteria.  Each entry is (file text, [(argv tail,
# expected exit code, expected document fields)]).
HANDWRITTEN = {
    "euler": ("field: real\nvars: 1\nunknowns: 1\nrow: x^2*D^2 - 2*x*D + 2\n", [
        (["riquier", "--s", "3"], 0,
         {"basis": ["D^2 - (2/x)*D + 2/x^2"], "s0": 2, "parametric": ["1", "D"]}),
        (["prop1", "--point", "1", "--s", "4"], 0,
         {"columns": 5, "rows": 3, "nullity": 2, "parametric_count": 2}),
        # u = x is the solution with u(1) = 1, u'(1) = 1
        (["solve", "--point", "1", "--init", "1=1, D=1", "--order", "4"], 0,
         {"derivative_values": {"u1": {"0": "1", "1": "1", "2": "0", "3": "0", "4": "0"}}}),
        (["member", "--q", "D^3", "--cross-check"], 0,
         {"member": True, "witness": {"w": "x^2", "cofactors": ["D"]},
          "lemma1_member": True, "euclidean_member": True}),
        (["verify-witness", "--q", "D^3", "--w", "x^2", "--h", "D"], 0, {"valid": True}),
    ]),
    "hermite": ("vars: 1\nrow: (-D + x)*(D + x)\nq: D + x\n", [
        (["riquier"], 0, {"basis": Ops("D^2 - x^2 + 1"), "s0": 2}),
        (["prop1", "--point", "0", "--s", "2"], 0, {"nullity": 2}),
        (["member", "--cross-check"], 1,
         {"member": False, "witness": None, "lemma1_member": False,
          "euclidean_member": False}),
        (["verify-witness", "--q", "D^2 - x^2 + 1", "--w", "1", "--h=-1"], 0,
         {"valid": True}),
    ]),
    "gradient": ("vars: 2\nrow: D1\nrow: D2\n", [
        (["riquier", "--s", "1"], 0, {"basis": Ops("D1", "D2"), "s0": 1, "parametric": ["1"]}),
        (["prop1", "--point", "0, 0", "--s", "1"], 0, {"nullity": 1, "parametric_count": 1}),
        (["member", "--q", "x1*D1*D2 + D2", "--cross-check"], 0,
         {"member": True, "lemma1_member": True}),
    ]),
    "collapsing": ("vars: 2\nrow: D1 - x2\nrow: D2\n", [
        (["riquier", "--s", "3"], 0, {"basis": Ops("1"), "s0": 0, "parametric": []}),
        (["prop1", "--point", "0, 0", "--s", "2"], 0, {"nullity": 0, "parametric_count": 0}),
        (["member", "--q", "x1^2*D2^2 + 7", "--cross-check"], 0,
         {"member": True, "lemma1_member": True}),
    ]),
    "vector": ("vars: 1\nunknowns: 2\nrow: D [u1]\nrow: 1 [u2]\n", [
        (["member", "--q", "D^2 [u1] + x [u2]", "--cross-check"], 0,
         {"member": True, "lemma1_member": True}),
        (["verify-witness", "--q", "D^2 [u1] + x [u2]", "--w", "1", "--h", "D", "--h", "x"], 0,
         {"valid": True}),
    ]),
    "d_plus_x": ("vars: 1\nrow: D + x\n", [
        # u = exp(-x^2/2): derivatives at 0 are 1, 0, -1, 0, 3
        (["solve", "--point", "0", "--init", "1=1", "--order", "4"], 0,
         {"derivative_values": {"u1": {"0": "1", "1": "0", "2": "-1", "3": "0", "4": "3"}}}),
        (["member", "--q=(-D + x)*(D + x)", "--cross-check"], 0,
         {"member": True, "lemma1_member": True, "euclidean_member": True}),
    ]),
    "d_minus_1": ("vars: 1\nrow: D - 1\n", [
        (["solve", "--point", "0", "--init", "1=1", "--order", "5"], 0,
         {"point": ["0"], "derivative_values": {"u1": {str(k): "1" for k in range(6)}}}),
        (["riquier"], 0, {"basis": Ops("D - 1"), "s0": 1, "parametric": ["1"]}),
    ]),
}


def _matches(expected, actual, m: int, n: int) -> bool:
    if expected is PRESENT:
        return actual is not None
    if isinstance(expected, Ops):
        def parse(texts):
            return Counter(wc.parse_operator(t, m, n) for t in texts)
        return isinstance(actual, list) and parse(expected.texts) == parse(actual)
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and _matches(v, actual[k], m, n) for k, v in expected.items())
    return expected == actual


class Cli:
    """In-process ``weylclosure.cli.main(argv)`` on generated ``.sys`` files.

    For each generated system (sized like ``Jets``) the ops are
    ``riquier``, ``prop1``, ``solve``, ``member --cross-check`` and
    ``verify-witness`` with the constructed certificate ``w = 1, h_j = a_j``.
    Every fifth system is one of the hand-written ones above.
    """

    def __init__(self, key: str, workdir: str):
        self.key = key
        self.workdir = workdir
        self._systems: dict = {}
        self._riquier_docs: dict = {}
        self._ops: List[dict] = []

    def _system(self, index: int) -> dict:
        system = self._systems.get(index)
        if system is not None:
            return system
        if index % 5 == 4:
            names = sorted(HANDWRITTEN)
            name = names[(index // 5) % len(names)]
            text, calls = HANDWRITTEN[name]
            path = os.path.join(self.workdir, f"{name}.sys")
            system = {"path": path, "text": text, "calls": calls}
        else:
            system = self._generated_system(index)
        with open(system["path"], "w", encoding="utf-8") as handle:
            handle.write(system["text"])
        loaded = wc_cli.load_system(system["path"])
        system["key"] = gen_key(loaded.generators)
        self._systems[index] = system
        return system

    def _generated_system(self, index: int) -> dict:
        base = random.Random(f"cli/{index}")
        m, n, count = SYSTEM_CLASSES[index % len(SYSTEM_CLASSES)]
        gens, rescale, factors = base_system(
            base, random.Random(f"cli/{self.key}/{index}"), m, n, count, degree=1)
        q, multipliers = constructed_member(base, gens)
        # q = sum_j a_j p_j becomes sum_j (a_j / c_j) (c_j p_j) after rescaling
        q = rescale(q)
        multipliers = [rescale(a, 1 / c) for a, c in zip(multipliers, factors)]
        gens = [rescale(g, c) for g, c in zip(gens, factors)]
        lines = [f"vars: {m}", f"unknowns: {n}"]
        lines += [f"row: {wc.format_operator(g)}" for g in gens]
        path = os.path.join(self.workdir, f"gen{index}.sys")
        q_text = wc.format_operator(q) if not q.is_zero() else "0"
        h_args = []
        for a in multipliers:
            h_args.append("--h=" + (wc.format_operator(a) if not a.is_zero() else "0"))
        calls = [
            (["riquier"], 0, {"basis": PRESENT, "parametric": PRESENT}),
            # _argv adds s, the order and initial values from riquier's output
            (["prop1"], 0, None),
            (["solve"], 0, None),
            (["member", f"--q={q_text}", "--cross-check"], 0,
             {"member": True, "lemma1_member": True}),
            (["verify-witness", f"--q={q_text}", "--w=1"] + h_args, 0, {"valid": True}),
        ]
        return {"path": path, "text": "\n".join(lines) + "\n", "calls": calls,
                "generated": True}

    def make_op(self, index: int):
        while len(self._ops) <= index:
            sys_index = len(self._systems)
            system = self._system(sys_index)
            for call_index in range(len(system["calls"])):
                self._ops.append({"system": sys_index, "call": call_index})
        return self._ops[index]

    def _argv(self, op):
        system = self._systems[op["system"]]
        tail, _, _ = system["calls"][op["call"]]
        if not system.get("generated") or tail[0] in ("riquier", "member", "verify-witness"):
            return [tail[0], system["path"]] + tail[1:]
        # prop1 and solve take s and the initial values from riquier's output
        riquier = self._riquier_docs.get(op["system"])
        if riquier is None:
            return [tail[0], system["path"]]
        s0 = riquier["s0"]
        if tail[0] == "prop1":
            return ["prop1", system["path"], "--s", str(s0 + 1)]
        init = ", ".join(f"{d}={k + 1}" for k, d in enumerate(riquier["parametric"]))
        argv = ["solve", system["path"], "--order", str(s0 + 2)]
        return argv + ([f"--init={init}"] if init else [])

    def run(self, op):
        argv = self._argv(op)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = wc_cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return {"argv": argv, "code": code, "stdout": out.getvalue(),
                "stderr": err.getvalue()}

    def check(self, op, out) -> Optional[str]:
        system = self._systems[op["system"]]
        tail, expected_code, expected = system["calls"][op["call"]]
        if out["code"] != expected_code:
            return (f"{' '.join(out['argv'][:1])} exited {out['code']}, "
                    f"expected {expected_code}: {out['stderr'].strip()}")
        try:
            doc = json.loads(out["stdout"])
        except json.JSONDecodeError:
            return "output is not JSON"
        m, n = system["key"][:2]
        if expected is not None and not _matches(expected, doc, m, n):
            return f"{tail[0]} output differs from the expected fields"
        if not system.get("generated"):
            return None
        # Generated systems: check against facts that do not come from the
        # subcommand itself.
        if tail[0] == "riquier":
            self._riquier_docs[op["system"]] = doc
        elif tail[0] == "prop1":
            # Prop. 1: at a regular point the nullity equals the parametric count
            if doc["nullity"] != doc["parametric_count"]:
                return "prop1 nullity differs from the parametric count"
        elif tail[0] == "solve":
            riquier = self._riquier_docs[op["system"]]
            for k, text in enumerate(riquier["parametric"]):
                (d,) = wc.parse_operator(text, m, n).terms
                key = ",".join(str(a) for a in d.alpha)
                if doc["derivative_values"][f"u{d.component}"].get(key) != str(k + 1):
                    return "solve changed a parametric initial value"
        return None

    def gen_key(self, op):
        return self._systems[op["system"]]["key"]

