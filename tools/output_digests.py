"""Print one SHA-256 per workload over the outputs that a refactor must keep identical.

    python3 tools/output_digests.py KEY...

Each KEY is a benchmark key, a seed and a pass such as ``4242.0``.  For each
key the script builds the ops of the benchmark's three workloads with
``bench/workloads.py`` (imported, never changed), runs them through the
library in the ``src/`` next to this script, and prints one line per workload
and key, ``<workload> <key> <ops> <sha256>``, over:

- ``decide`` (520 ops): the member flag, the normal form, the basis, and for
  a member the witness's w and every h_j;
- ``jets`` (180 ops): the basis, every nullspace jet and every solved jet;
- ``cli`` (600 calls): each call's exit code and standard output.

Every op's own check from ``bench/workloads.py`` runs too, and a line ends in
``(N checks failed)`` when some do.  To compare two commits, run the script
in a checkout of each (``git archive <commit> | tar -x -C <dir>``; copy this
file into a checkout that predates it) with the same keys, and compare the
lines: equal digests mean byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import weylclosure as wc  # noqa: E402
import workloads  # noqa: E402
from weylclosure.formatting import format_derivative  # noqa: E402

# ops per key: the counts the library's refactors have compared so far
COUNTS = {"decide": 520, "jets": 180, "cli": 600}


def _jet(jet) -> str:
    values = sorted(jet.values.items(), key=lambda item: (item[0].component, item[0].alpha))
    return ", ".join(f"{format_derivative(d, jet.m, jet.n)}={v}" for d, v in values)


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


RECORDS = {"decide": _decide, "jets": _jets, "cli": _cli}


def digest(name: str, key: str, workdir: str):
    """(ops, failed checks, SHA-256) of one workload at one key."""
    if name == "decide":
        workload = workloads.Decide(key)
    elif name == "jets":
        workload = workloads.Jets(key)
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
    with tempfile.TemporaryDirectory() as workdir:
        for name in COUNTS:
            for key in args.keys:
                ops, failed, hexdigest = digest(name, key, workdir)
                note = f" ({failed} checks failed)" if failed else ""
                print(f"{name} {key} {ops} {hexdigest}{note}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
