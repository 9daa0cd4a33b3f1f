"""Self-test of the benchmark at reduced size.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that
- a smoke run of every workload, untraced and traced, prints as its
  last line exactly the keys of the result contract, with every metric
  that BENCHMARK.json names, in its unit, and no failed invocation;
- a deliberately corrupted artifact is counted as a failed invocation;
- a directory holding only BENCHMARK.json and the benchmark's files
  makes the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
failures: list[str] = []


def check(cond: bool, message: str):
    print(("ok    " if cond else "FAIL  ") + message, flush=True)
    if not cond:
        failures.append(message)


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def last_json(lines: list[str]):
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def smoke(workload: str, trace: int):
    code, lines = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"])
    res = last_json(lines)
    label = f"{workload} trace={trace}"
    check(code == 0 and res is not None, f"{label}: exits 0 with a JSON last line")
    if res is None:
        return
    check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result has exactly the contract keys")
    check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, f"{label}: no failed invocation")
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in res["metrics"].items()}
    check(emitted == declared, f"{label}: every declared metric emitted with its unit, and no other")
    check(
        all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]) for v in res["metrics"].values()),
        f"{label}: every value is a finite number",
    )


def corrupted_artifact():
    code, lines = run(["--workload", "stage_rerun", "--seed", "3", "--seconds", "1", "--smoke", "--corrupt"])
    res = last_json(lines)
    check(code == 0 and res is not None, "corrupt: run completes")
    if res is not None:
        check(res["failed"] == 1 and res["correct"] is False, "corrupt: the corrupted artifact counts as one failed invocation")


def bare_directory():
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    code, lines = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"], cwd=bare)
    check(code != 0 and last_json(lines) is None, "bare directory: exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for workload in WORKLOADS:
        for trace in (0, 1):
            smoke(workload, trace)
    corrupted_artifact()
    bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
