"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 bench/smoke.py

Run from the root of a source checkout.  Each run must exit 0, pass its
correctness gate, and print every metric that BENCHMARK.json names, with
its unit, in the JSON object on its last line.  Exits 1 on the first
mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in groups.items():
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=170)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = result["metrics"]
            missing = [m["name"] for m in wanted
                       if printed.get(m["name"], {}).get("unit") != m["unit"]]
            extra = sorted(set(printed) - {m["name"] for m in wanted})
            if not result["correct"] or result["failed"] or missing or extra:
                print(f"FAIL {label}: correct={result['correct']} "
                      f"failed={result['failed']} missing={missing} extra={extra}")
                return 1
            for m in wanted:
                if f"{m['name']} " not in proc.stdout:
                    print(f"FAIL {label}: {m['name']} not printed in the report")
                    return 1
            print(f"ok {label}: {result['attempted']} ops, {len(printed)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
