"""Quick check of the benchmark's output form, in about half a minute.

usage: python3 bench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced with
run.py --smoke (tiny iteration caps, few ops) and checks that the last
line of each run is a JSON object with exactly the keys correct,
attempted, failed and metrics, that the metrics are exactly the ones
BENCHMARK.json names for that mode with their units, that every value is
a finite number, and that no op failed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems_of(result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    attempted, failed = result["attempted"], result["failed"]
    if not (type(attempted) is int and type(failed) is int and attempted >= 1):
        problems.append(f"attempted {attempted!r}, failed {failed!r}")
    elif failed != 0:
        problems.append(f"{failed} of {attempted} ops failed")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(
            f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"{name}: {m!r}, expected unit {unit!r}")
        elif isinstance(m["value"], bool) or not isinstance(
            m["value"], (int, float)
        ) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    bad = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [
                *spec["command"], "--workload", workload["name"], "--seed",
                "1", "--seconds", "1", "--trace", str(trace), "--smoke",
            ]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                check=False,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems = [f"exit {done.returncode}: {done.stderr.strip()}"]
            else:
                try:
                    problems = problems_of(json.loads(lines[-1]),
                                           expected[trace])
                except json.JSONDecodeError:
                    problems = [f"last line is not JSON: {lines[-1]!r}"]
            label = f"{workload['name']} trace={trace}"
            print(f"{label}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
