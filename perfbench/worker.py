"""Workload process: set up, run the timed CLI invocations, check outputs.

Usage: python3 worker.py SPEC_JSON

The spec (written by run.py) names the workload, seed, seconds, trace
mode and work directory. The result lands in `<work>/result.json`.
Set-up (interpreter start, `import eigenop`, config generation) ends at
the `ready` timestamp, taken on the system-wide monotonic clock so the
parent can subtract its spawn time. With `setup_only` the process stops
there.

Output checks run in a child process, so that the memory they use does
not count in this process's peak resident memory.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import checks
import workloads


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def generate(spec: dict, src: Path):
    """Write the seeded configs and describe each one (N, grid, config sha256)."""
    from eigenop.basis import TruncatedBasis, default_grid
    from eigenop.cli import resolve_config
    from eigenop.ioformats import sha256_of

    raw, steps = workloads.build(spec["workload"], spec["seed"], src, spec.get("smoke", False))
    cfg_dir = Path(spec["work"]) / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    resolved, records = {}, {}
    for name, cfg in raw.items():
        (cfg_dir / f"{name}.json").write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
        res = resolve_config(cfg)
        cutoffs = res["truncation"]["cutoffs"]
        basis = TruncatedBasis(cutoffs, ("base",) + ("fiber",) * (len(cutoffs) - 1))
        grid = res["grid"]["points"] or list(default_grid(basis, res["grid"]["multiplier"]).points)
        resolved[name] = res
        records[name] = {
            "system": res["system"],
            "N": basis.size,
            "grid": grid,
            "config_sha256": sha256_of(res),
        }
    return cfg_dir, resolved, records, steps


class Runner:
    """Runs the steps of one workload and keeps the outcome of each invocation."""

    def __init__(self, spec: dict, cfg_dir: Path, resolved: dict, steps: list, checker: ProcessPoolExecutor):
        from eigenop import cli

        self.cli = cli
        self.checker = checker
        self.spec = spec
        self.cfg_dir = cfg_dir
        self.resolved = resolved
        self.steps = steps
        self.invocations: list[dict] = []
        self.tracer = None
        self.corrupt_pending = bool(spec.get("corrupt_first_artifact"))

    def invoke(self, argv: list[str]) -> tuple[float, str | None]:
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
            error = None if rc == 0 else f"exit code {rc}"
        except SystemExit as exc:
            error = f"exit code {exc.code}"
        except Exception:
            traceback.print_exc()
            error = "exception: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        return time.perf_counter() - t0, error

    def run_pass(self, label: str) -> float:
        """One pass over the workload's steps; returns the summed invocation time."""
        root = Path(self.spec["work"]) / label
        wall = 0.0
        self.aggregate_errors = self.rerun_identical = self.rerun_artifacts = 0
        first_hashes: dict[str, dict] = {}
        for k, (name, stage, fresh) in enumerate(self.steps):
            out = root / name
            if fresh and out.exists():
                shutil.rmtree(out)
            if self.tracer is not None:
                self.tracer.invocation = len(self.invocations)
                self.tracer.n_leading = self.resolved[name]["decomposition"]["n_leading"]
            argv = [stage, "--config", str(self.cfg_dir / f"{name}.json"), "--out", str(out)]
            seconds, error = self.invoke(argv)
            wall += seconds
            problems = [error] if error else []
            if not problems:
                if self.corrupt_pending:
                    self.corrupt(out)
                try:
                    found, facts = self.checker.submit(checks.check_invocation, out, self.resolved[name]).result()
                except Exception as exc:  # a malformed artifact is a failed check
                    found, facts = [f"check raised {type(exc).__name__}: {exc}"], None
                problems.extend(found)
                if facts is not None:
                    self.aggregate_errors += facts["aggregate_errors"]
                    if stage == "all" and fresh:
                        first_hashes[name] = facts["hashes"]
                    elif stage == "all" and name in first_hashes:
                        self.compare_rerun(first_hashes.pop(name), facts["hashes"])
            self.invocations.append(
                {"pass": label, "config": name, "stage": stage, "seconds": seconds, "problems": problems}
            )
            for p in problems:
                print(f"FAILED {label} {name} {stage}: {p}", file=sys.stderr, flush=True)
            last_of_config = k + 1 == len(self.steps) or self.steps[k + 1][0] != name
            if last_of_config:
                shutil.rmtree(out, ignore_errors=True)
            gc.collect()
        return wall

    def corrupt(self, out: Path):
        """Self-test hook: flip one byte of the first listed artifact."""
        manifest = json.loads((out / "manifest.json").read_text())
        target = out / sorted(manifest["outputs"])[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        self.corrupt_pending = False

    def compare_rerun(self, first: dict, second: dict):
        names = set(first) | set(second)
        self.rerun_artifacts += len(names)
        self.rerun_identical += sum(1 for n in names if first.get(n) == second.get(n))


def blas_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):  # show_config layout varies across numpy versions
        return {"name": None, "version": None}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import eigenop.cli  # noqa: F401  -- the import is part of set-up
    import numpy as np

    cfg_dir, resolved, records, steps = generate(spec, src)
    ready = monotonic()
    result = {"ready": ready, "configs": records}
    out_path = Path(spec["work"]) / ("setup.json" if spec.get("setup_only") else "result.json")
    if spec.get("setup_only"):
        out_path.write_text(json.dumps(result))
        return 0

    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as checker:
        runner = Runner(spec, cfg_dir, resolved, steps, checker)
        if spec["trace"]:
            run_traced(runner, result)
        else:
            run_timed(runner, spec["seconds"], result)
    result["aggregate_errors"] = runner.aggregate_errors
    result["invocations"] = runner.invocations
    result["env"] = {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": blas_record(),
    }
    out_path.write_text(json.dumps(result))
    return 0


def run_timed(runner: Runner, seconds: float, result: dict):
    """Untraced passes while another one fits in `seconds` (always at least one)."""
    passes: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(runner.run_pass(f"pass{len(passes)}"))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    result["passes"] = passes
    result["wall_s"] = statistics.median(passes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_traced(runner: Runner, result: dict):
    """One traced pass; per-layer metrics, spans written to `<work>/spans.json`."""
    from tracing import Tracer

    runner.tracer = Tracer()
    runner.tracer.install()
    try:
        traced_wall = runner.run_pass("traced")
    finally:
        runner.tracer.uninstall()
    layers = runner.tracer.summary()
    layers["eigenoperator.aggregate_errors"] = runner.aggregate_errors
    layers["cli.rerun_identical_ratio"] = (
        runner.rerun_identical / runner.rerun_artifacts if runner.rerun_artifacts else 0.0
    )
    layers["cli.rerun_artifacts"] = runner.rerun_artifacts
    layers["tracing.overhead_s"] = runner.tracer.overhead_s()
    # The root span of every invocation is cli.main; its own self time
    # (argument parsing, error mapping) is the time no layer accounts for.
    self_s = runner.tracer.totals()[0]
    layers["tracing.self_coverage"] = (sum(self_s.values()) - self_s["cli.main"]) / traced_wall
    result["passes"] = [traced_wall]
    result["top_self_s"] = sorted(self_s.items(), key=lambda kv: -kv[1])[:12]
    result["layers"] = layers
    runner.tracer.dump(Path(runner.spec["work"]) / "spans.json")


if __name__ == "__main__":
    raise SystemExit(main())
