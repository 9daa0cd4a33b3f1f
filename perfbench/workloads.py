"""Workload definitions: seeded configs and the CLI invocations run on them.

Each workload is a list of steps. A step names a config, the CLI stage
to run (`all` or a single stage), and whether it starts a fresh output
directory. The seed picks only free parameters (rotation alpha and beta,
base points); sizes are fixed, so run length does not depend on the
seed. Where a discrete map's subspace dimension drifts across y-samples,
the aggregation loop ends early, so the torus shift `gtilde` is fixed
and the cyclic-group base point is drawn where the outcome is the same.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SINGLE_STAGES = ("assemble", "eig", "oseledets", "eigenop", "cocycle-field")

WORKLOADS = {
    "vortex_pipeline": "bundled gaussian_vortex config (N = 13^3 = 2197): dense eigensolve, matrix writes, cocycle flow",
    "discrete_orbit": "a torus-translation and a cyclic-group map at 64 y-samples: periodic-orbit setup dominates",
    "stage_rerun": "small and mid-size continuous configs, each run whole, stage by stage, then again into the same directory",
}


def _bundled(src: Path, name: str) -> dict:
    return json.loads((src / "eigenop" / "configs" / f"{name}.json").read_text())


def _base_point(rng: random.Random) -> float:
    return round(rng.uniform(0.0, 2.0 * math.pi), 6)


def _rotation(rng: random.Random, cutoff: int) -> dict:
    return {
        "system": {
            "name": "rotation",
            "params": {"alpha": round(rng.uniform(0.55, 0.85), 6), "beta": round(rng.uniform(0.2, 0.45), 6)},
        },
        "truncation": {"cutoffs": [cutoff, cutoff]},
        "spectra": {"tol": 1e-06},
        "decomposition": {"d_values": [1], "subspace_rank": 1, "n_leading": 5},
        "evaluation": {"y": _base_point(rng), "s": 0.1},
    }


def _vortex(src: Path, rng: random.Random, cutoff: int | None, smoke: bool) -> dict:
    cfg = _bundled(src, "gaussian_vortex")
    cfg["evaluation"]["y"] = _base_point(rng)
    if cutoff is not None:
        cfg["truncation"]["cutoffs"] = [cutoff] * 3
    if smoke:
        cfg["decomposition"] = {"d_values": [1, 2], "subspace_rank": 1, "n_leading": 4}
        cfg["evaluation"]["field_grid"] = [16, 16]
    return cfg


TORUS_GTILDE = 0.7  # every bin aggregates over all y-samples without a dimension mismatch


def _torus(rng: random.Random, samples: int) -> dict:
    return {
        "system": {"name": "torus_translation", "params": {"n": 4, "gtilde": TORUS_GTILDE}},
        "truncation": {"cutoffs": [4, 4]},
        "evaluation": {"y": _base_point(rng), "i": 1, "y_sample_count": samples},
    }


def _cyclic(rng: random.Random, samples: int) -> dict:
    # The fiber shift is 1 on [0, pi) and 2 on [pi, 2pi); over the period-3
    # orbit of y it sums to 4 when y mod 2pi/3 lies in [0, pi/3) and to 5
    # otherwise, which gives 3 or 6 isolating bins. Drawing y from the first
    # case keeps the work, and the 3 reported dimension-mismatch aggregates,
    # the same on every seed.
    third = 2.0 * math.pi / 3.0
    y = rng.randrange(3) * third + rng.uniform(0.05, math.pi / 3.0 - 0.05)
    return {
        "system": {"name": "cyclic_group", "params": {"m": 6, "n": 3}},
        "truncation": {"cutoffs": [4, 4]},
        "evaluation": {"y": round(y, 6), "i": 1, "y_sample_count": samples},
    }


def build(workload: str, seed: int, src: Path, smoke: bool = False):
    """Return (configs, steps) for one workload.

    configs maps a config name to its raw JSON; steps is a list of
    (config name, stage, fresh) tuples, run in order. `smoke` swaps in
    tiny sizes for the benchmark's self-test.
    """
    rng = random.Random(seed)
    configs: dict[str, dict] = {}
    steps: list[tuple[str, str, bool]] = []
    if workload == "vortex_pipeline":
        configs["vortex"] = _vortex(src, rng, 2 if smoke else None, smoke)
        steps.append(("vortex", "all", True))
    elif workload == "discrete_orbit":
        samples = 8 if smoke else 64
        configs["torus"] = _torus(rng, samples)
        configs["cyclic"] = _cyclic(rng, samples)
        steps.extend((name, "all", True) for name in configs)
    elif workload == "stage_rerun":
        for cutoff in (6,) if smoke else (6, 8, 10):
            configs[f"rotation_k{cutoff}"] = _rotation(rng, cutoff)
        for cutoff in (2,) if smoke else (3, 4):
            configs[f"vortex_k{cutoff}"] = _vortex(src, rng, cutoff, smoke)
        for name in configs:
            steps.append((name, "all", True))
            steps.extend((name, stage, False) for stage in SINGLE_STAGES)
            steps.append((name, "all", False))
    else:
        raise KeyError(f"unknown workload '{workload}'")
    return configs, steps
