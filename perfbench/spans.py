"""In-memory span tracer for the benchmark's traced repetitions.

The tracer wraps the public poldefl functions that the pipeline calls,
from the outside: each wrapped call records a span (name, start, end,
parent) in a list, and nothing is written until the repetition ends.
Self time is a span's duration minus the durations of its direct
children; the pipeline is single-threaded, so children never overlap and
the self times of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (span name, module, attribute). One span name may cover several
# attributes (the three surface kinds share simulator.intersect).
TARGETS = [
    ("pipeline.simulate", "poldefl.pipeline", "simulate"),
    ("pipeline.reconstruct", "poldefl.pipeline", "reconstruct"),
    ("pipeline.evaluate", "poldefl.pipeline", "evaluate"),
    ("manifest.validate", "poldefl.manifest", "validate_manifest"),
    ("simulator.trace", "poldefl.simulator", "trace"),
    ("simulator.intersect", "poldefl.simulator", "Sphere.intersect"),
    ("simulator.intersect", "poldefl.simulator", "Plane.intersect"),
    ("simulator.intersect", "poldefl.simulator", "HeightField.intersect"),
    ("simulator.render", "poldefl.simulator", "render_stack"),
    ("simulator.render_frame", "poldefl.simulator", "render_frame"),
    ("simulator.aolp", "poldefl.simulator", "aolp_of"),
    ("simulator.sample_bilinear", "poldefl.simulator", "sample_bilinear"),
    ("simulator.noise", "poldefl.simulator", "NoiseModel.apply"),
    ("codec.generate_patterns", "poldefl.codec", "generate_patterns"),
    ("codec.decode_phase_shift", "poldefl.codec", "decode_phase_shift"),
    ("codec.unwrap", "poldefl.codec", "unwrap_two_frequency"),
    ("codec.fourier", "poldefl.codec", "decode_fourier_single_shot"),
    ("polarization.fresnel", "poldefl.polarization", "fresnel_reflectance"),
    ("polarization.stokes", "poldefl.polarization", "stokes_from_quad"),
    ("polarization.invert_dop", "poldefl.polarization", "invert_dop"),
    ("polarization.dop_model", "poldefl.polarization", "dop_model"),
    ("reconstruct.fuse", "poldefl.reconstruct", "fuse_map"),
    ("reconstruct.depth_solve", "poldefl.reconstruct", "solve_depth_for_theta"),
    ("geometry.half_angle_along_ray", "poldefl.geometry", "half_angle_along_ray"),
    ("reconstruct.export", "poldefl.reconstruct", "export_geometry"),
    ("reconstruct.baseline", "poldefl.reconstruct", "orthographic_baseline"),
    ("pfmio.write_pfm", "poldefl.pfmio", "write_pfm"),
    ("pfmio.read_pfm", "poldefl.pfmio", "read_pfm"),
    ("pfmio.write_ply", "poldefl.pfmio", "write_ply"),
    ("metrics.evaluate", "poldefl.metrics", "evaluate"),
]

# Spans the benchmark opens itself around each command (the roots).
COMMAND_SPANS = ["cli.simulate", "cli.reconstruct", "cli.evaluate"]

SPAN_NAMES = COMMAND_SPANS + list(dict.fromkeys(name for name, _, _ in TARGETS))


class CoverageError(RuntimeError):
    """A function the benchmark traces no longer exists."""


def _resolve(module: str, attr: str):
    mod = importlib.import_module(module)
    owner = mod
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, leaf, None)):
        raise CoverageError(f"traced function {module}.{attr} no longer exists")
    return owner, leaf


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count(name, args, kwargs, result, counters):
    """Work counts taken at the same boundaries as the spans."""
    import numpy as np

    def add(key, value):
        counters[key] = counters.get(key, 0) + value

    if name == "simulator.trace":
        add("trace.hits", int(np.sum(result.mask)))
        add("trace.pixels", int(result.mask.size))
    elif name == "polarization.invert_dop":
        add("invert_dop.pixels", int(np.size(_arg(args, kwargs, 0, "rho"))))
    elif name == "reconstruct.fuse":
        stats = result[1]
        add("fuse.pixels", stats["pixels"])
        add("fuse.measurable", stats["measurable"])
    elif name == "codec.decode_phase_shift":
        add("decode.valid", int(np.sum(result[2])))
        add("decode.pixels", int(result[2].size))
    elif name == "codec.fourier":
        for axis in result.values():
            add("decode.valid", int(np.sum(axis["valid"])))
            add("decode.pixels", int(axis["valid"].size))
    elif name in ("pfmio.write_pfm", "pfmio.write_ply"):
        add("bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


class Tracer:
    """Records spans for one repetition (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index]
        self.counters = {}
        self._stack = []

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close()
        _count(name, args, kwargs, result, self.counters)
        return result

    def install(self):
        """Wrap every target, both where it is defined and wherever a
        poldefl module imported it by name. Raises CoverageError if a
        target is gone."""
        for name, module, attr in TARGETS:
            owner, leaf = _resolve(module, attr)
            orig = getattr(owner, leaf)
            wrapper = self._wrap(name, orig)
            setattr(owner, leaf, wrapper)
            if isinstance(owner, type):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("poldefl") and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)

    def _wrap(self, name, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, orig, *args, **kwargs)

        return wrapper

    def records(self):
        return [
            {"run": self.run_id, "id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]


def layer_metrics(spans: list[dict], counters: dict) -> dict:
    """Per-layer totals, self times, call counts and derived ratios of one
    traced repetition. Every span name is reported, with zero calls when
    it did not run."""
    dur = [sp["end"] - sp["start"] for sp in spans]
    child_sum = [0.0] * len(spans)
    for sp, d in zip(spans, dur):
        if sp["parent"] >= 0:
            child_sum[sp["parent"]] += d

    def has_ancestor(i, name):
        p = spans[i]["parent"]
        while p >= 0:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    out = {}
    for name in SPAN_NAMES:
        idx = [i for i, sp in enumerate(spans) if sp["name"] == name]
        outer = [i for i in idx if not has_ancestor(i, name)]
        out[f"{name}_s"] = sum(dur[i] for i in outer)
        out[f"{name}_self_s"] = sum(dur[i] - child_sum[i] for i in idx)
        out[f"{name}_calls"] = len(idx)

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    out["simulator.frames"] = out["simulator.render_frame_calls"]
    out["simulator.hit_fraction"] = ratio("trace.hits", "trace.pixels")
    out["codec.valid_fraction"] = ratio("decode.valid", "decode.pixels")
    out["polarization.invert_dop_pixels"] = counters.get("invert_dop.pixels", 0)
    out["polarization.dop_model_evals"] = sum(
        1 for i, sp in enumerate(spans)
        if sp["name"] == "polarization.dop_model" and has_ancestor(i, "polarization.invert_dop"))
    out["reconstruct.depth_evals"] = sum(
        1 for i, sp in enumerate(spans)
        if sp["name"] == "geometry.half_angle_along_ray"
        and has_ancestor(i, "reconstruct.depth_solve"))
    out["reconstruct.fuse_pixels_in"] = counters.get("fuse.pixels", 0)
    out["reconstruct.measurable_ratio"] = ratio("fuse.measurable", "fuse.pixels")
    out["pfmio.bytes_written"] = counters.get("bytes_written", 0)
    out["trace.self_sum_s"] = sum(d - c for d, c in zip(dur, child_sum))
    return out


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that end before they start, leave their parent's interval or
    overlap a sibling: any of these would make self times meaningless."""
    errors = []
    last_end = {}
    for i, sp in enumerate(spans):
        if sp["end"] is None or sp["end"] < sp["start"]:
            errors.append(f"span {i} {sp['name']} has no valid end")
            continue
        p = sp["parent"]
        if p >= 0 and not (spans[p]["start"] <= sp["start"] and sp["end"] <= spans[p]["end"]):
            errors.append(f"span {i} {sp['name']} leaves its parent {spans[p]['name']}")
        if sp["start"] < last_end.get(p, float("-inf")):
            errors.append(f"span {i} {sp['name']} overlaps its previous sibling")
        last_end[p] = sp["end"]
    return errors
