"""eigenop benchmark: runs one workload through `eigenop.cli.main` and reports.

Usage (from the repository root):

    python3 perfbench/run.py --workload vortex_pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in its own worker process, one process at a time,
with BLAS threads pinned to the usable core count. The timed phase
repeats whole passes over the workload's invocations while another pass
fits in --seconds (always at least one). `--trace 0` reports the
end-to-end metrics; `--trace 1` runs one traced pass and reports the
per-layer metrics. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES_AROUND = 7  # set-up-only workers before and after the workload worker
RUN_TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def memory_record() -> dict:
    rec = {}
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            key, value = line.split(":", 1)
            if key in ("MemTotal", "MemAvailable"):
                rec[key] = int(value.split()[0]) // 1024
    except OSError:
        pass
    return rec  # MB


def source_record() -> dict:
    """Git commit when the tree is a repository, and a hash of the package source."""
    h = hashlib.sha256()
    for path in sorted((SRC / "eigenop").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def host_loop_s() -> float:
    """Time of a fixed pure-Python loop: a record of the host's speed, not a metric.

    The host's single-core speed drifts by tens of percent over minutes;
    this shows which state a run saw.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("EIGENOP_THREADS", None)
    return env


def spawn_worker(spec: dict, threads: int, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (spawn time, its result)."""
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    (work / "spec.json").write_text(json.dumps(spec))
    with open(work / "worker.log", "w") as log:
        t_spawn = monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
            cwd=ROOT, env=worker_env(threads), stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and its checker process
            proc.wait()
            raise RuntimeError(f"worker for {spec['workload']} timed out; log in {work / 'worker.log'}")
    result_file = work / ("setup.json" if spec.get("setup_only") else "result.json")
    if code != 0 or not result_file.exists():
        tail = (work / "worker.log").read_text()[-2000:]
        raise RuntimeError(f"worker for {spec['workload']} exited with {code}:\n{tail}")
    return t_spawn, json.loads(result_file.read_text())


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke=False, corrupt=False) -> dict:
    start = monotonic()
    deadline = start + RUN_TIMEOUT_S
    host_before = host_loop_s()
    threads = usable_cores()
    work = OUT / f"{name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(work, ignore_errors=True)
    base = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "src": str(SRC), "smoke": smoke}

    def setup_only(k: int) -> float:
        t_spawn, res = spawn_worker(dict(base, work=str(work / f"setup{k}"), setup_only=True), threads, deadline)
        return res["ready"] - t_spawn

    # Set-up samples straddle the timed phase: the host's speed drifts over
    # tens of seconds, and samples taken back to back would all share one state.
    # A traced run reports no set-up time and takes none.
    around = 0 if trace else SETUP_SAMPLES_AROUND
    setups = [setup_only(k) for k in range(around)]
    t_spawn, res = spawn_worker(dict(base, work=str(work / "run"), corrupt_first_artifact=corrupt), threads, deadline)
    setups.append(res["ready"] - t_spawn)
    setups += [setup_only(k) for k in range(around, 2 * around)]

    invocations = res["invocations"]
    failed = sum(1 for inv in invocations if inv["problems"])
    env = {
        "cores": threads,
        "memory_mb": memory_record(),
        "blas": dict(res["env"]["blas"], threads=threads),
        "numpy": res["env"]["numpy"],
        "python": res["env"]["python"],
        **source_record(),
        "seed": seed,
        "host_loop_s": [host_before, host_loop_s()],
        "configs": res["configs"],
    }
    report = {
        "workload": name,
        "env": env,
        "passes": res["passes"],
        "setup_samples": setups,
        "invocations": len(invocations),
        "aggregate_errors": res["aggregate_errors"],
        "failed": failed,
        "failures": [inv for inv in invocations if inv["problems"]],
        "run_seconds": monotonic() - start,
    }
    if trace:
        report["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(res["layers"].items())}
        report["top_self_s"] = res["top_self_s"]
    else:
        report["metrics"] = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    report["failed_ops"] = failed / len(invocations)
    (work / "report.json").write_text(json.dumps(report, indent=1))
    shutil.rmtree(work / "run" / "configs", ignore_errors=True)
    return report


def unit_of(metric: str) -> str:
    leaf = metric.rsplit(".", 1)[-1]
    if leaf in ("s", "self_s", "wall_s", "overhead_s"):
        return "s"
    if leaf.endswith("_ratio") or leaf == "self_coverage":
        return "ratio"
    if leaf.startswith("bytes"):
        return "bytes"
    return "count"


def print_report(report: dict):
    print(f"# workload {report['workload']}  seed {report['env']['seed']}  passes {len(report['passes'])}"
          f"  run {report['run_seconds']:.1f} s")
    print("# env " + json.dumps({k: v for k, v in report["env"].items() if k != "configs"}, sort_keys=True))
    for cname, rec in report["env"]["configs"].items():
        print(f"# config {cname}: {rec['system']['name']} N={rec['N']} grid={rec['grid']} sha256={rec['config_sha256']}")
    for name, seconds in report.get("top_self_s", []):
        print(f"# self time {name:40s} {seconds:10.4f} s")
    for key, m in report["metrics"].items():
        print(f"{key:48s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'failed_ops':48s} {report['failed_ops']:>16.6f} share ({report['failed']}/{report['invocations']})")
    print(f"# eigenoperator aggregate errors in the last pass: {report['aggregate_errors']}")
    for inv in report["failures"]:
        print(f"# FAILED {inv['pass']} {inv['config']} {inv['stage']}: {'; '.join(inv['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's self-test")
    parser.add_argument("--corrupt", action="store_true", help="corrupt one artifact, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "eigenop" / "cli.py").is_file():
        print(f"error: no eigenop package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke, args.corrupt) for n in names]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    summary = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["invocations"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
    }
    if len(reports) == 1:
        summary["metrics"] = reports[0]["metrics"]
    else:
        summary["metrics"] = {f"{r['workload']}.{k}": m for r in reports for k, m in r["metrics"].items()}
    print(json.dumps(summary, sort_keys=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
