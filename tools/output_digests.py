"""Print one SHA-256 per workload over the outputs that a refactor must keep identical.

    python3 tools/output_digests.py KEY...

Each KEY is a benchmark key, a seed and a pass such as ``4242.0``.  For each
key the script builds the ops of the benchmark's three workloads with
``bench/workloads.py`` (imported, never changed), runs them through the
library in the ``src/`` next to this script, and prints one line per workload
and key, ``<workload> <key> <ops> <sha256>``, over:

- ``decide`` (520 ops): the member flag, the normal form, the basis, and for
  a member the witness's w and every h_j;
- ``jets`` (180 ops): the basis, every nullspace jet and every solved jet,
  each as its values on all of Delta_order, zeros included;
- ``cli`` (600 calls): each call's exit code and standard output;
- ``complex`` (150 ops): as ``decide``, over Gaussian systems that no
  workload has, built here (``Complex``) as the complex-mode acceptance
  sweep of ``tests/test_acceptance.py`` builds them.

Every op's own check from ``bench/workloads.py`` (or ``Complex.check``) runs
too, and a line ends in ``(N checks failed)`` when some do; the script then
exits 1, once every line is printed, and 0 otherwise.  To compare two commits, run the script
in a checkout of each (``git archive <commit> | tar -x -C <dir>``; copy this
file into a checkout that predates it) with the same keys, and compare the
lines: equal digests mean byte-identical outputs.

``output_digests_4242.0.txt`` and ``output_digests_4242.1.txt`` next to this
script hold the four lines of keys 4242.0 and 4242.1 under Python 3.11 and
sympy 1.14 with its default ground types, and CI compares them there: a
change that means to change a printed output writes the new lines into those
files.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import weylclosure as wc  # noqa: E402
import workloads  # noqa: E402
from weylclosure.formatting import format_derivative  # noqa: E402
from weylclosure.operators import derivatives_up_to  # noqa: E402

# ops per key: the counts the library's refactors have compared so far
COUNTS = {"decide": 520, "jets": 180, "cli": 600, "complex": 150}

# (m, n, number of generators) of the complex ops' systems, taken in turn
COMPLEX_CLASSES = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 1)]
GAUSSIAN_FACTORS = [wc.GaussianRational(0, 1), wc.GaussianRational(1, 1),
                    wc.GaussianRational(2, -1)]


def _gaussian_scaled(rng, p):
    """p with about three in four coefficients scaled by i, 1 + i or 2 - i."""
    terms = {}
    for d, c in p.terms.items():
        factor = rng.choice(GAUSSIAN_FACTORS) if rng.random() < 0.75 else 1
        terms[d] = wc.RationalFunction(
            wc.Polynomial({e: factor * v for e, v in c.num.terms.items()}, p.m))
    return wc.OperatorVector(terms, p.m, p.n)


class Complex:
    """``weyl_closure_member(q, gens)`` on Gaussian systems of order <= 2.

    Pairs of ops cycle through ``COMPLEX_CLASSES``; even ops have a
    constructed member q, odd ops a random q, and most coefficients of the
    generators, of q and of the multipliers are scaled by a Gaussian factor.
    """

    def __init__(self, key: str):
        self.key = key

    def make_op(self, index: int):
        rng = random.Random(f"complex/{self.key}/{index}")
        m, n, count = COMPLEX_CLASSES[(index // 2) % len(COMPLEX_CLASSES)]
        gens = [_gaussian_scaled(rng, workloads.random_nonzero_operator(
            rng, m, n, order=2, degree=2, terms=2)) for _ in range(count)]
        constructed = index % 2 == 0
        if constructed:
            q = wc.OperatorVector.zero(m, n)
            for g in gens:
                a = workloads.random_operator(rng, m, 1, order=1, degree=1, terms=1)
                q = q + wc.scalar_operator_product(_gaussian_scaled(rng, a), g)
        else:
            q = _gaussian_scaled(rng, workloads.random_operator(rng, m, n, order=2, degree=2,
                                                                terms=2))
        return {"q": q, "gens": gens, "constructed": constructed}

    def run(self, op):
        return wc.weyl_closure_member(op["q"], op["gens"])

    def check(self, op, result):
        q, gens = op["q"], op["gens"]
        if op["constructed"] and not result.member:
            return "constructed member answered no"
        if result.member and not wc.verify_witness(result.witness, q, gens):
            return "witness rejected by verify_witness"
        if wc.membership_via_lemma1(q, gens) != result.member:
            return "disagrees with lemma1"
        if q.m == 1 and q.n == 1 and len(gens) == 1:
            if wc.oracle_division_member_1d(q, gens[0]) != result.member:
                return "disagrees with Euclidean division"
        return None


def _jet(jet) -> str:
    """Every derivative of Delta_order, zeros included, by (component, alpha)."""
    delta = sorted(derivatives_up_to(jet.m, jet.n, jet.order))
    return ", ".join(f"{format_derivative(d, jet.m, jet.n)}={jet.value(d)}" for d in delta)


def _basis(basis) -> str:
    return "; ".join(map(wc.format_operator, basis.elements))


def _decide(result) -> list:
    lines = [str(result.member), wc.format_operator(result.normal_form), _basis(result.basis)]
    if result.witness is not None:
        lines.append(wc.format_polynomial(result.witness.w))
        lines.extend(map(wc.format_operator, result.witness.cofactors))
    return lines


def _jets(out) -> list:
    return ([_basis(out["basis"])] + [_jet(jet) for jet in out["jets"]]
            + [_jet(jet) for jet in out["extended"]])


def _cli(out) -> list:
    return [str(out["code"]), out["stdout"]]


RECORDS = {"decide": _decide, "jets": _jets, "cli": _cli, "complex": _decide}


def digest(name: str, key: str, workdir: str):
    """(ops, failed checks, SHA-256) of one workload at one key."""
    if name == "decide":
        workload = workloads.Decide(key)
    elif name == "jets":
        workload = workloads.Jets(key)
    elif name == "complex":
        workload = Complex(key)
    else:
        workload = workloads.Cli(key, os.path.join(workdir, key))
        os.makedirs(workload.workdir, exist_ok=True)
    sha, failed = hashlib.sha256(), 0
    for index in range(COUNTS[name]):
        op = workload.make_op(index)
        out = workload.run(op)
        # the cli workload's check also records riquier's output for later calls
        failed += workload.check(op, out) is not None
        for line in RECORDS[name](out):
            sha.update(line.encode() + b"\n")
        sha.update(b"\x00")  # ends the op
    return COUNTS[name], failed, sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("keys", nargs="+", metavar="KEY", help="a benchmark key, e.g. 4242.0")
    args = parser.parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name in COUNTS:
            for key in args.keys:
                ops, failed, hexdigest = digest(name, key, workdir)
                note = f" ({failed} checks failed)" if failed else ""
                print(f"{name} {key} {ops} {hexdigest}{note}", flush=True)
                if failed:
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
