"""Save one traced benchmark run of every workload as BENCH_<n>.json.

    python3 tools/bench_snapshot.py N

For each workload named in BENCHMARK.json, one after another, it runs

    python3 perfbench/run.py --workload W --seed 0 --seconds 27 --trace 1

and keeps the run's `conditions` line and its final JSON line. It then writes
BENCH_<N>.json at the repository root, mapping each workload to those two.
A run that exits non-zero, prints either line malformed, or whose result
says `"correct": false`, `failed` > 0 or `trace.missing` > 0 stops it before
anything is written.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = 27


def entry(output: str) -> dict:
    """The conditions and the final result of one run, from its standard output."""
    lines = output.strip().splitlines()
    conditions = [line for line in lines if line.startswith("conditions ")]
    if len(conditions) != 1:
        raise ValueError(f"expected one conditions line, found {len(conditions)}")
    if not lines[-1].startswith("{"):
        raise ValueError("the last line is not the run's JSON result")
    result = json.loads(lines[-1])
    # run.py exits 0 after failed checks, so the result itself must say it passed
    missing = result["metrics"].get("trace.missing", {}).get("value", 0)
    if result["correct"] is not True or result["failed"] or missing:
        raise ValueError(f"the run did not pass: correct {result['correct']}, failed {result['failed']}, "
                         f"trace.missing {missing}")
    return {
        "conditions": json.loads(conditions[0].removeprefix("conditions ")),
        "result": result,
    }


def assemble(outputs: dict[str, str]) -> dict:
    """The snapshot document: one entry per workload, in the order given."""
    return {name: entry(output) for name, output in outputs.items()}


def run(workload: str) -> str:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python3 tools/bench_snapshot.py N", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    outputs = {w["name"]: run(w["name"]) for w in spec["workloads"]}
    path = ROOT / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(assemble(outputs), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
