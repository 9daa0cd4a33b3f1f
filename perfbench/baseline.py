"""Run every workload on two seed sets and record medians, spreads and agreement.

Usage (from the repository root):

    python3 perfbench/baseline.py --runs 10 --first-seeds 101 201 --out perfbench/baseline.json

Each first seed starts one set of `--runs` consecutive seeds; the sets run
one after the other. For each set, workload and end-to-end metric it
records the values, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the interquartile
distance as a share of the median, next to the bound in BENCHMARK.json,
and per seed the eigenoperator aggregate error count and the host-speed
loop times of run.py (before and after the run). `agreement`
compares each later set's medians with the first set's. One traced run
per workload, on the first seed, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the saved report of one run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = HERE / "out" / f"{workload}-seed{seed}{'-trace' if trace else ''}" / "report.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(report.read_text())


def run_set(workloads: list[str], seeds: list[int], seconds: int, bounds: dict) -> dict:
    entries = {}
    for workload in workloads:
        runs, errors, host = [], [], []
        for seed in seeds:
            res, report = run_once(workload, seed, seconds, 0)
            runs.append(res)
            errors.append(report["aggregate_errors"])
            host.append(report["env"]["host_loop_s"])
            values = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{workload} seed {seed}: failed {res['failed']}/{res['attempted']} "
                  f"aggregate errors {errors[-1]} host loop {[round(t, 3) for t in host[-1]]} {values}", flush=True)
        stats = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            stats[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "values": values,
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med,
                "bound": bound,
            }
            print(f"  {name:12s} median {med:10.4f}  spread {stats[name]['spread']:.4f}  bound {bound}", flush=True)
        entries[workload] = {
            "end_to_end": stats,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "aggregate_errors": errors,
            "host_loop_s": host,
        }
    return {"seeds": seeds, "workloads": entries}


def agreement(first: dict, later: dict, bounds: dict) -> dict:
    """Later median ÷ first median − 1 per workload and metric (positive is worse)."""
    out = {}
    for workload, entry in later["workloads"].items():
        out[workload] = {}
        for name, bound in bounds.items():
            change = entry["end_to_end"][name]["median"] / first["workloads"][workload]["end_to_end"][name]["median"] - 1
            out[workload][name] = {"change": change, "bound": bound, "within": change <= bound}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seeds", type=int, nargs="+", default=[101, 201])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    sets = [run_set(workloads, list(range(first, first + args.runs)), seconds, bounds) for first in args.first_seeds]
    doc = {
        "run_seconds": seconds,
        "sets": sets,
        "agreement": [agreement(sets[0], later, bounds) for later in sets[1:]],
        "per_layer": {},
    }
    for workload in workloads:
        seed = sets[0]["seeds"][0]
        res, report = run_once(workload, seed, seconds, 1)
        doc["per_layer"][workload] = {
            "seed": seed,
            "traced_wall_s": report["passes"][0],
            "metrics": {k: v["value"] for k, v in res["metrics"].items()},
        }
        print(f"{workload} traced: {report['top_self_s'][:3]}", flush=True)
    doc["env"] = {k: v for k, v in report["env"].items() if k not in ("seed", "host_loop_s", "configs")}
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
