"""Smoke test of the benchmark itself, in its short mode (``--seconds 0``).

    python3 perfbench/smoke.py [--seed 7]

For every workload it runs one round end to end twice, and the traced run
twice: once on the fixed set of rounds alone and once for LONGER_S seconds,
which plays more rounds where they are short.  All at the same seed.  It
checks that every metric BENCHMARK.json names is emitted with its unit, that
the end-to-end runs attempt and fail the same operations, and that the exact
counts repeat exactly, whatever the run length.
Exits 0 on success, 1 with the differences otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
EXACT = (
    "membership.evals_per_sup.K2", "membership.evals_per_sup.K3", "membership.evals_per_sup.K5",
    "membership.evals_per_sup.K8", "membership.evals_per_sup.K16",
    "membership.sup_calls_per_row.K2", "membership.sup_calls_per_row.K3",
    "verify.failed_checks", "known_defects", "sup_shortfall_rel", "fail_share",
)
LONGER_S = 16


def run_once(workload: str, seed: int, trace: int, seconds: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark smoke test")
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first = run_once(workload, seed, trace)
            second = run_once(workload, seed, trace, LONGER_S if trace else 0)
            where = f"{workload} --trace {trace}"
            for result in (first, second):
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != {m["name"]: m["unit"] for m in declared}:
                    problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
            for name in EXACT:
                if trace and first["metrics"][name]["value"] != second["metrics"][name]["value"]:
                    problems.append(f"{where}: {name} did not repeat: "
                                    f"{first['metrics'][name]['value']} vs {second['metrics'][name]['value']}")
            counts = [(r["attempted"], r["failed"]) for r in (first, second)]
            if not trace and counts[0] != counts[1]:
                problems.append(f"{where}: attempted/failed did not repeat")
            print(f"{where}: attempted {first['attempted']} and {second['attempted']}, "
                  f"failed {first['failed']} and {second['failed']}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
