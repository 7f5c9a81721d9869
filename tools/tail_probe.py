"""Time the completion's heavy tail, and two witness lifts from it.

    python3 tools/tail_probe.py

The systems are the 120 of the heavy-tail probe: for k = 0..119, in turn,
``n = rng.randint(1, 2)`` unknowns and then ``random_generators(rng, 2, n, c,
order=2, degree=2)`` from ``tests/conftest.py``, with c = 3 generators for odd
k and 2 for even k, and one ``rng = random.Random(7)`` shared across k.  Each
system is completed once, under a ``SIGALRM`` limit of ``LIMIT`` seconds.
Then ``D1 [u1]`` (``D1`` when n = 1) is decided against systems 103 and 70
with ``weyl_closure_member``, whose time is the completion's, the
reduction's and the witness lift's, and each witness is checked by
``verify_witness``.

The script prints the systems over the limit, the number and total time of
the finishers, the three slowest, and each lift's time and verdict.  It takes
no options, and runs the library in the ``src/`` next to it; to compare two
commits, copy it into a checkout of each, as for ``output_digests.py``.  It
exits 1 when a completion raises or a lift is not a verified member, and 0
otherwise: a system over the limit is reported, never failed.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import weylclosure as wc  # noqa: E402
from conftest import random_generators  # noqa: E402

SYSTEMS = 120
LIMIT = 8  # seconds per completion
LIFTS = (103, 70)


class OverLimit(BaseException):
    """Raised from SIGALRM; a BaseException, so that no ``except Exception`` swallows it."""


def systems():
    rng = random.Random(7)
    for k in range(SYSTEMS):
        n = rng.randint(1, 2)
        yield k, n, random_generators(rng, 2, n, 3 if k % 2 else 2, order=2, degree=2)


def expire(signum, frame):
    raise OverLimit


def main() -> int:
    status = 0
    drawn = list(systems())
    over, times = [], {}
    signal.signal(signal.SIGALRM, expire)
    for k, n, gens in drawn:
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, LIMIT)
        try:
            wc.complete_to_riquier_basis(gens, 2, n)
        except OverLimit:
            over.append(k)
            continue
        except Exception as error:  # noqa: BLE001 -- reported, and the exit status says so
            print(f"k={k}: the completion raised {type(error).__name__}: {error}")
            status = 1
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times[k] = time.perf_counter() - start
    print(f"over the limit of {LIMIT} s: {', '.join(f'k={k}' for k in over) or 'none'}")
    print(f"finishers: {len(times)}, {sum(times.values()):.2f} s in total")
    slowest = sorted(times, key=times.get, reverse=True)[:3]
    print("slowest: " + ", ".join(f"k={k} {times[k]:.2f} s" for k in slowest))
    for k in LIFTS:
        _, n, gens = drawn[k]
        q = wc.parse_operator("D1 [u1]" if n > 1 else "D1", 2, n)
        start = time.perf_counter()
        result = wc.weyl_closure_member(q, gens)
        took = time.perf_counter() - start
        verified = result.member and wc.verify_witness(result.witness, q, gens)
        verdict = "verified member" if verified else (
            "witness rejected" if result.member else "not a member")
        print(f"lift k={k}: {took:.2f} s, {verdict}")
        if not verified:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
