"""Span tracing of the package's public functions, installed from outside.

`Tracer.install` wraps every public module-level function of the traced
modules and rebinds each reference to it held by a package module,
including dict-held references such as the CLI's stage table. A span
records name, start, end, parent span and invocation id; spans stay in
memory until `dump`. Counters that ratios need are recorded by hooks at
the same boundaries, after the span has closed.

`overhead_s` is the tracer's own cost in a traced run: the measured time
spent in hooks plus the number of spans times the calibrated cost of one
span around an empty function. A difference of traced and untraced pass
times cannot resolve it: tracing costs milliseconds, while host speed
moves a 30 s pass by seconds.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "generator", "spectra", "oseledets", "eigenoperator", "cocycle", "systems", "basis", "ioformats")
WRITERS = ("write_matrix", "write_frame", "write_json", "write_field_csv", "write_heatmap_ppm")
STAGES = ("assemble", "eig", "oseledets", "eigenop", "cocycle_field")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, invocation]
        self.stack: list[int] = []
        self.invocation = -1
        self.n_leading = 0  # of the current invocation's config
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.hook_s = 0.0
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn, hook=None, only_under: str | None = None):
        spans, stack = self.spans, self.stack
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_under is not None and self._parent_name() != only_under:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                hook(self, sig.bind(*args, **kwargs).arguments, result)
                self.hook_s += time.perf_counter() - t0
            return result

        return traced

    # -- hooks -----------------------------------------------------------

    def _on_eig_matrix(self, args, result):
        n = len(args["M"])
        self.counts["eig_matrix.max_n"] = max(self.counts["eig_matrix.max_n"], n)
        if self._parent_name() == "spectra.eig":
            self.counts["eigpairs_computed"] += n
            self.counts["eigpairs_used"] += min(self.n_leading, n)

    def _on_periodic_subspaces(self, args, result):
        self.distinct["base_points"].add((self.invocation, float(args["y"])))

    def _on_flow_fiber(self, args, result):
        import numpy as np

        z = np.ascontiguousarray(args["z"], dtype=float)
        key = (self.invocation, args["system"].name, float(args["y"]), float(args["s"]),
               int(args.get("steps", 100)), z.shape, hashlib.blake2b(z.tobytes(), digest_size=16).digest())
        self.distinct["flows"].add(key)

    def _on_write(self, args, result):
        self.counts["bytes_written"] += _size(args["path"])

    def _on_write_ppm(self, args, result):
        self.counts["bytes_written"] += _size(args["path"]) + _size(str(args["path"]) + ".json")

    def _on_read_matrix(self, args, result):
        self.counts["bytes_read"] += _size(args["path"])

    def _on_cache_lookup(self, args, result):
        self.counts["cache_lookups"] += 1
        self.counts["cache_hits"] += result is not None

    # -- installation ----------------------------------------------------

    def install(self):
        import numpy as np

        hooks = {
            "spectra.eig_matrix": Tracer._on_eig_matrix,
            "oseledets.periodic_subspaces": Tracer._on_periodic_subspaces,
            "systems.flow_fiber": Tracer._on_flow_fiber,
            "ioformats.read_matrix": Tracer._on_read_matrix,
        }
        hooks.update({f"ioformats.{w}": Tracer._on_write for w in WRITERS})
        hooks["ioformats.write_heatmap_ppm"] = Tracer._on_write_ppm
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"eigenop.{layer}")
            for attr, val in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(val) and val.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[id(val)] = self.wrap(name, val, hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "eigenop" and not modname.startswith("eigenop."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._set(mod, attr, wrapped[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrapped:
                            self._set_item(val, key, wrapped[id(item)])
        ctx = sys.modules["eigenop.cli"].PipelineContext
        self._set(ctx, "_load_cached", self.wrap("cli.cache_lookup", ctx._load_cached, Tracer._on_cache_lookup))
        self._set(np.linalg, "eig", self.wrap("spectra.dense_eig", np.linalg.eig, only_under="spectra.eig_matrix"))

    def _set(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._undo:
            setter, owner, key, old = self._undo.pop()
            setter(owner, key, old)

    # -- results ---------------------------------------------------------

    def overhead_s(self) -> float:
        """Hook time plus spans times the cost of one span (best of 5 timings)."""
        calls = 20000

        def empty():
            return None

        traced = Tracer().wrap("calibrate", empty)
        per_span = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                empty()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            per_span = min(per_span, ((t2 - t1) - (t1 - t0)) / calls)
        return self.hook_s + len(self.spans) * max(per_span, 0.0)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "invocation"], "spans": self.spans}, fh)

    def totals(self):
        """Self time, inclusive time and call count per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        wall_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        writers = {f"ioformats.{w}" for w in WRITERS}
        write_s = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            own = end - start - child[i]
            self_s[name] += own
            wall_s[name] += end - start
            calls[name] += 1
            if name in writers or (name == "ioformats.canonical_json" and parent >= 0 and spans[parent][0] in writers):
                write_s += own
        return self_s, wall_s, calls, write_s

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: self times, counts and ratios."""
        self_s, wall_s, calls, write_s = self.totals()
        layer_s: dict[str, float] = defaultdict(float)
        for name, own in list(self_s.items()):
            layer_s[name.split(".", 1)[0]] += own
        c, d = self.counts, self.distinct

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "spectra.dense_eig.s": self_s["spectra.dense_eig"],
            "spectra.matrix_norm_estimate.s": self_s["spectra.matrix_norm_estimate"],
            "spectra.eig_matrix.self_s": self_s["spectra.eig_matrix"],
            "spectra.eig_matrix.calls": calls["spectra.eig_matrix"],
            "spectra.eig_matrix.max_n": c["eig_matrix.max_n"],
            "spectra.eigpairs_used_ratio": ratio(c["eigpairs_used"], c["eigpairs_computed"]),
            "spectra.eigpairs_computed": c["eigpairs_computed"],
            "generator.assemble_generator.s": self_s["generator.assemble_generator"],
            "generator.assemble_generator.calls": calls["generator.assemble_generator"],
            "generator.smoothed_generator.s": self_s["generator.smoothed_generator"],
            "generator.assemble_fiber_koopman.s": self_s["generator.assemble_fiber_koopman"],
            "generator.assemble_fiber_koopman.calls": calls["generator.assemble_fiber_koopman"],
            "oseledets.periodic_subspaces.s": self_s["oseledets.periodic_subspaces"],
            "oseledets.periodic_subspaces.calls": calls["oseledets.periodic_subspaces"],
            "oseledets.setup_reuse_ratio": ratio(len(d["base_points"]), calls["oseledets.periodic_subspaces"]),
            "oseledets.isolating_bins.s": self_s["oseledets.isolating_bins"],
            "oseledets.restrict_at_base.s": self_s["oseledets.restrict_at_base"],
            "oseledets.restrict_at_base.calls": calls["oseledets.restrict_at_base"],
            "oseledets.orthonormalize.calls": calls["oseledets.orthonormalize"],
            "eigenoperator.continuous_eigenoperator.s": self_s["eigenoperator.continuous_eigenoperator"],
            "eigenoperator.discrete_eigenoperator_spectrum.s": self_s["eigenoperator.discrete_eigenoperator_spectrum"],
            "cocycle.hatw_field.s": self_s["cocycle.hatw_field"],
            "cocycle.hatw_field.calls": calls["cocycle.hatw_field"],
            "cocycle.build_test_vector.s": self_s["cocycle.build_test_vector"],
            "systems.flow_fiber.s": self_s["systems.flow_fiber"],
            "systems.flow_fiber.calls": calls["systems.flow_fiber"],
            "systems.flow_reuse_ratio": ratio(len(d["flows"]), calls["systems.flow_fiber"]),
            "basis.evaluate_at.s": self_s["basis.evaluate_at"],
            "basis.synthesize.s": self_s["basis.synthesize"],
            "ioformats.write.s": write_s,
            "ioformats.encode_matrix.s": self_s["ioformats.encode_matrix"],
            "ioformats.bytes_written": c["bytes_written"],
            "ioformats.read_matrix.s": self_s["ioformats.read_matrix"],
            "ioformats.read_matrix.calls": calls["ioformats.read_matrix"],
            "ioformats.bytes_read": c["bytes_read"],
            "cli.resolve_config.s": self_s["cli.resolve_config"],
            "cli.run_pipeline.self_s": self_s["cli.run_pipeline"],
            "cli.cache_hit_ratio": ratio(c["cache_hits"], c["cache_lookups"]),
            "cli.cache_lookups": c["cache_lookups"],
            "tracing.spans": len(self.spans),
        }
        for stage in STAGES:
            m[f"cli.stage_{stage}.wall_s"] = wall_s[f"cli.stage_{stage}"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_s[layer]
        return m
