"""weylclosure benchmark: time-to-verdict on the decide, jets and cli workloads.

    python3 bench/run.py --workload decide --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The ops run in this one process, with no threads.

The ops run back to back, a closed loop with one client.  The number of ops
is fixed by ``--seconds`` and a nominal rate per workload, so that every
commit measures the same ops; on the reference machine the ops take about
``--seconds``, and a faster commit finishes sooner.  With ``--trace 0`` the
ops run in PASSES passes and the end-to-end metrics are printed.  With
``--trace 1`` they run in four passes, untraced, traced, traced and
untraced, and the per-layer metrics are printed.  Each op is checked
outside its timed region.

Op times are scaled to the machine's quiet speed (see ``Speed``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

WORKLOADS = ("decide", "jets", "cli")
# Ops per second of --seconds, near the library's rate when the benchmark
# was defined on a 2-vCPU VM (Python 3.11, sympy 1.14).  It only turns
# --seconds into a fixed op count, so it must not change when the library
# gets faster.
NOMINAL_OPS_PER_S = {"decide": 130, "jets": 90, "cli": 120}
PASSES = 4
WARM_UP_OPS = 3
# set-ups per run, each in a fresh interpreter, so each pays every first-use cost
SETUP_SAMPLES = 5
# Per-op limit, well above the slowest op seen at these sizes.
OP_LIMIT_S = 60.0

# BENCHMARK.json names the metrics each mode prints, with their units.
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class OpTimeout(BaseException):
    """Raised from SIGALRM inside an op.

    It derives from BaseException so that neither ``cli.main`` (which
    catches WeylClosureError, OSError and ValueError) nor any broad
    ``except Exception`` in a dependency swallows it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


def limited(fn, *args):
    """fn(*args) under the per-op limit, enforced by a real-time interval timer."""
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- the machine's speed ---------------------------------------------------------

# The reference loop's time on the 2-vCPU VM the benchmark was defined on,
# when that VM was quiet.  Scaled times are in seconds at that speed.
REFERENCE_QUIET_S = 0.001
# How often a pass times the reference loop, and how many samples on each
# side of an op give its speed.
REFERENCE_EVERY_S = 0.025
REFERENCE_NEAR = 3


def reference_loop():
    """Fixed work in the standard library only, so no commit can change it.

    Fractions in a dict, like the library's coefficient arithmetic.
    """
    acc = {}
    f = Fraction(3, 7)
    for i in range(250):
        k = i % 17
        acc[k] = acc.get(k, 0) + f * Fraction(i + 1, k + 2)
    return acc


class Speed:
    """Times of the reference loop, taken between ops, to scale op times by.

    On the shared 2-vCPU VM the benchmark was tuned on, the same fixed work
    ran up to 2.4x slower for spells of seconds to minutes, longer than a
    run.  The reference loop slows with it: over 150 s, a jets op's time
    ranged over 1.07-2.43x its quiet value while its ratio to the nearby
    reference loop stayed within 0.87-1.14.  An op's scaled time is its
    wall time times REFERENCE_QUIET_S over the median of the reference
    samples nearest to it.
    """

    def __init__(self):
        self.at: list = []
        self.took: list = []
        self._last = float("-inf")

    def sample(self, force=False) -> None:
        now = time.perf_counter()
        if force or now - self._last >= REFERENCE_EVERY_S:
            reference_loop()
            self.at.append(now)
            self.took.append(time.perf_counter() - now)
            self._last = time.perf_counter()

    def factor(self, when: float) -> float:
        """Quiet over current speed near ``when``: below 1 when the machine is slow."""
        i = bisect.bisect(self.at, when)
        near = self.took[max(0, i - REFERENCE_NEAR):i + REFERENCE_NEAR]
        return REFERENCE_QUIET_S / statistics.median(near)


class Pass:
    """The ops of one pass over a workload: times, failures and the slowest op."""

    def __init__(self):
        self.times: list = []   # wall seconds
        self.scaled: list = []  # wall seconds at the quiet machine's speed
        self.failures: list = []  # (index, message)
        self.timeouts: list = []
        self.slowest = (0.0, -1)  # (wall seconds, index) of the slowest op that finished
        self.speed = Speed()

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def busy_s(self) -> float:
        return sum(self.times)


def op_count(name, seconds) -> int:
    return max(1, round(seconds * NOMINAL_OPS_PER_S[name]))


def run_pass(workload, ops, check=True, before_op=None) -> Pass:
    """Run every op in ``ops``, each under the per-op limit, and check it."""
    result = Pass()
    starts = []
    for index, op in enumerate(ops):
        result.speed.sample()
        if before_op is not None:
            before_op(index, op)
        error = None
        start = time.perf_counter()
        try:
            output = limited(workload.run, op)
        except OpTimeout:
            error = f"timed out after {OP_LIMIT_S:g} s"
            result.timeouts.append(index)
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        starts.append(start)
        result.times.append(elapsed)
        if error is None:
            result.slowest = max(result.slowest, (elapsed, index))
            if check:
                try:
                    error = limited(workload.check, op, output)
                except OpTimeout:
                    error = f"check timed out after {OP_LIMIT_S:g} s"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            result.failures.append((index, error))
    result.speed.sample(force=True)
    result.scaled = [t * result.speed.factor(s) for t, s in zip(result.times, starts)]
    return result


def make_workload(name, key):
    """The workload whose inputs are drawn with ``key`` (a seed and a pass)."""
    import workloads

    if name == "decide":
        return workloads.Decide(key)
    if name == "jets":
        return workloads.Jets(key)
    workdir = os.path.join(OUT, f"cli-{os.getpid()}", key)
    os.makedirs(workdir, exist_ok=True)
    return workloads.Cli(key, workdir)


def set_up(name, seed, count):
    """Generate the first pass's ops and warm up on separate ops."""
    workload = make_workload(name, f"{seed}.0")
    ops = [workload.make_op(i) for i in range(count)]
    warm = make_workload(name, "warm-up")
    for i in range(WARM_UP_OPS):
        op = warm.make_op(i)
        warm.check(op, limited(warm.run, op))
    return workload, ops


# A cold import of sympy.polys, a dependency no commit changes, in a fresh
# interpreter: the reference for the import part of a set-up, which slows
# with it rather than with the reference loop.  About 0.4 s on the quiet VM.
IMPORT_REFERENCE_QUIET_S = 0.4
IMPORT_REFERENCE = ("import time; start = time.perf_counter(); import sympy.polys; "
                    "print(time.perf_counter() - start)")


def setup_samples(args, first) -> tuple:
    """``first`` and SETUP_SAMPLES - 1 more set-ups, each in a fresh interpreter.

    A sample is (import seconds, scaled seconds of the rest).  Between the
    samples, fresh interpreters time IMPORT_REFERENCE, and every import part
    is scaled by IMPORT_REFERENCE_QUIET_S over the median of those times.
    They run one at a time, before any op is timed.  Returns the scaled
    set-ups and the median reference time.
    """
    samples = [first]
    references = []
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--setup-only"]
    for i in range(2 * SETUP_SAMPLES - 1):
        child = subprocess.run([sys.executable, "-c", IMPORT_REFERENCE] if i % 2 == 0 else argv,
                               capture_output=True, text=True, timeout=120, check=True)
        printed = [float(word) for word in child.stdout.split()]
        if i % 2 == 0:
            references.append(printed[-1])
        else:
            samples.append(tuple(printed[-2:]))
    reference = statistics.median(references)
    factor = IMPORT_REFERENCE_QUIET_S / reference
    return [import_s * factor + rest for import_s, rest in samples], reference


def p95(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def report_gate(name, seed, passes) -> bool:
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(f"correctness gate: {'PASS' if not failures else 'FAIL'} "
          f"({attempted - len(failures)} of {attempted} ops correct)")
    for index, message in failures:
        print(f"FAILED op: workload {name} seed {seed} index {index}: {message}")
    for p in passes:
        for index in p.timeouts:
            print(f"TIMEOUT op: workload {name} seed {seed} index {index} "
                  f"(limit {OP_LIMIT_S:g} s)")
    seconds, index = max(p.slowest for p in passes)
    print(f"per-op limit {OP_LIMIT_S:g} s; slowest op that finished: "
          f"{seconds:.3f} s wall (index {index})")
    return not failures


def report_pass(label, p: Pass):
    slow = statistics.median(p.speed.took)
    print(f"{label}: {p.attempted} ops in {p.busy_s:.3f} s wall, "
          f"wall p50 {statistics.median(p.times):.6f} s, wall p95 {p95(p.times):.6f} s, "
          f"reference loop {slow * 1000:.3f} ms (quiet: {REFERENCE_QUIET_S * 1000:g} ms)")


def on_each_cpu(count):
    """Yield 0..count-1, moving this process to the next allowed CPU each time.

    On a shared host each CPU has its own slow spells, so passes alternate
    between the CPUs this process may use.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    try:
        for r in range(count):
            if cpus:
                os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            yield r
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def end_to_end(name, seed, prepared):
    """PASSES passes; the metrics are over the scaled times of every op of every pass.

    Each pass after the first draws its inputs with its own key, so every
    pass is a fresh input of nearly the same difficulty and no result can be
    reused.
    """
    workload, ops = prepared
    passes = []
    for r in on_each_cpu(PASSES):
        if r:
            workload = make_workload(name, f"{seed}.{r}")
            ops = [workload.make_op(i) for i in range(len(ops))]
        passes.append(run_pass(workload, ops))
    ok = report_gate(name, seed, passes)
    times = [t for p in passes for t in p.scaled]
    attempted = sum(p.attempted for p in passes)
    failures = sum(len(p.failures) for p in passes)
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_p95_s": p95(times),
        "ops_per_s": (attempted - failures) / sum(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for r, p in enumerate(passes):
        report_pass(f"pass {r}", p)
    print(f"ops attempted {attempted} ({len(ops)} ops x {PASSES} passes), "
          f"failed {failures}, ops_failed_frac {failures / attempted:.4f} (of {attempted})")
    return ok, attempted, failures, metrics


def traced(name, seed, prepared):
    """Untraced, traced, traced and untraced passes over the same ops.

    The first traced pass gives the per-layer metrics and the spans.  The
    overhead compares each op's fastest scaled time on either side.
    """
    import tracing

    workload, ops = prepared
    tracer = tracing.Tracer()
    completed: set = set()  # inputs of the completions before the current op
    merged = 0  # completions already in ``completed``
    repeats = []

    def before_op(index, op):
        nonlocal merged
        completed.update(key for key, _, _ in tracer.completions[merged:])
        merged = len(tracer.completions)
        repeats.append(workload.gen_key(op) in completed)
        tracer.op = index

    untraced, with_spans = [], []
    for r in on_each_cpu(4):
        if r in (0, 3):
            untraced.append(run_pass(workload, ops, check=not r))
            continue
        # the second traced pass only times the ops
        pass_tracer = tracer if not with_spans else tracing.Tracer()
        pass_tracer.install()
        try:
            with_spans.append(run_pass(workload, ops, check=False,
                                       before_op=None if with_spans else before_op))
        finally:
            pass_tracer.uninstall()
    passes = untraced + with_spans
    ok = report_gate(name, seed, passes)

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-{seed}.tsv")
    tracer.write_spans(spans_path)
    print(f"{len(tracer.span_name)} spans of the first traced pass written to "
          f"{os.path.relpath(spans_path)}")

    metrics = {}
    for qualified, stat in tracer.stats.items():
        metrics[f"{qualified}.calls"] = stat.calls
        metrics[f"{qualified}.s"] = stat.s
        metrics[f"{qualified}.self_s"] = stat.self_s
    completions = tracer.completions
    completion_s = tracer.stats[tracing.COMPLETION].s
    sop = tracer.stats["operators.scalar_operator_product"]
    n = max(len(completions), 1)

    def fastest(side):
        return sum(min(p.scaled[i] for p in side) for i in range(len(ops)))

    untraced_s, traced_s = fastest(untraced), fastest(with_spans)
    metrics.update({
        "riquier.basis_elements": sum(size for _, size, _ in completions) / n,
        "riquier.unit_collapse_frac": sum(unit for _, _, unit in completions) / n,
        "operators.scalar_operator_product.completion_share":
            sop.in_completion_s / completion_s if completion_s else 0.0,
        "ranking.reduce_full.zero_frac":
            tracer.zero_reductions / max(tracer.reductions, 1),
        "input_repeat_frac": sum(repeats) / max(len(repeats), 1),
        "trace.overhead_frac": traced_s / untraced_s - 1,
    })
    for r, p in zip((0, 3, 1, 2), passes):
        report_pass(f"pass {r} ({'traced' if r in (1, 2) else 'untraced'})", p)
    print("properties and ratios, each with its base:")
    print(f"  riquier.unit_collapse_frac {metrics['riquier.unit_collapse_frac']:.3f} "
          f"of {len(completions)} completions")
    print(f"  input_repeat_frac {metrics['input_repeat_frac']:.3f} of {len(repeats)} ops")
    print(f"  ranking.reduce_full.zero_frac {metrics['ranking.reduce_full.zero_frac']:.3f} "
          f"of {tracer.reductions} reductions")
    print(f"  operators.scalar_operator_product.completion_share "
          f"{metrics['operators.scalar_operator_product.completion_share']:.3f} "
          f"of {completion_s:.3f} s in riquier.complete_to_riquier_basis. This counts "
          f"scalar_operator_product only; the rest of the cofactor bookkeeping "
          f"(left_scale in _make_monic, cofactor subtraction in _Entry.__sub__ and "
          f"_reduce_entry) is outside it. The ROADMAP's figure of about 0.97 on the "
          f"paths set is completion with against without cofactor tracking, so it is "
          f"not the same measure.")
    print(f"  trace.overhead_frac {metrics['trace.overhead_frac']:.3f} "
          f"({traced_s:.3f} s traced against {untraced_s:.3f} s untraced, scaled, "
          f"fastest of two passes per op; {len(tracer.span_name)} spans over "
          f"{with_spans[0].attempted} ops)")
    return ok, sum(p.attempted for p in passes), sum(len(p.failures) for p in passes), metrics


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the op count: about this much op time on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one set-up sample in a fresh interpreter; see setup_samples
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import sympy.polys  # noqa: F401  (the library imports it on first use)
    import weylclosure  # noqa: F401

    import_s = time.perf_counter() - start
    signal.signal(signal.SIGALRM, _on_alarm)
    # the traced run spreads --seconds over its four passes
    count = op_count(args.workload, args.seconds / PASSES)
    try:
        # The rest of the set-up is library code and is scaled like the ops;
        # the import is scaled in setup_samples, since it does not slow with
        # the reference loop.
        speed = Speed()
        for _ in range(REFERENCE_NEAR):
            speed.sample(force=True)
        work_start = time.perf_counter()
        prepared = set_up(args.workload, args.seed, count)
        work_end = time.perf_counter()
        for _ in range(REFERENCE_NEAR):
            speed.sample(force=True)
        setup = (import_s, (work_end - work_start) * speed.factor(work_end))
        if args.setup_only:
            print(f"{setup[0]!r} {setup[1]!r}")
            return 0
        if args.trace:
            ok, attempted, failed, metrics = traced(args.workload, args.seed, prepared)
        else:
            setups, reference = setup_samples(args, setup)
            metrics = {"setup_s": statistics.median(setups)}
            print(f"workload {args.workload} seed {args.seed}: setup_s "
                  f"{metrics['setup_s']:.4f} s, median of {SETUP_SAMPLES} scaled set-ups "
                  f"(import, input generation and warm-up): "
                  f"{[round(s, 4) for s in setups]}; reference import "
                  f"{reference:.4f} s (quiet: {IMPORT_REFERENCE_QUIET_S:g} s)")
            ok, attempted, failed, timed = end_to_end(args.workload, args.seed, prepared)
            metrics.update(timed)
    finally:
        shutil.rmtree(os.path.join(OUT, f"cli-{os.getpid()}"), ignore_errors=True)
    with open(SPEC, encoding="utf-8") as handle:
        names = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    document = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    for name, entry in document.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": document}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
