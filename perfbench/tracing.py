"""Span recorder for the traced benchmark run, and the per-layer metrics.

``Tracer.install`` replaces every public function of the package's
modules, under each name a caller looks it up by, with a wrapper that
records a span.  ``harness.dy.evolve`` is the binding ``evolve`` in
``dynamics``; ``observables.gp_coeffs`` is the binding of
``algebra.gp_coeffs`` inside ``observables``.  A span holds the function's
owner, the module it was looked up in, start, end, parent span and the
repetition id.  Spans stay in memory until the run ends; the counts that
the metrics need are taken at the same boundaries.

A span's self time is its duration minus the durations of its children.
Calls run in one thread and nest, so the children never overlap, and the
self times of one repetition add up to the duration of its root span.
"""

from __future__ import annotations

import functools
import inspect
import os
from time import perf_counter

import numpy as np

from cliffordqm import algebra, dynamics, grids, harness, observables, oracle, spinors

MODULES = (algebra, spinors, oracle, grids, observables, dynamics, harness)
LAYERS = ("bench",) + tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)
ROOT = "bench.rep"

# fields of a span record
NAME, SITE, PARENT, START, END, REP, CHILD, INFO = range(8)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[1]


# Counts taken when a call returns: (fn, args, kwargs, result) -> span info.
def _gp_info(fn, args, kwargs, result):
    return (int(np.prod(result.shape[:-1])), result.shape[-1])


def _evolve_info(fn, args, kwargs, result):
    n_frames = len(result.frames)
    return (result.grid.n_points * (n_frames - 1), sum(f.nbytes for f in result.frames))


def _trajectory_info(fn, args, kwargs, result):
    n_frames, n_seeds = result.paths.shape[:2]
    return n_seeds * (n_frames - 1)


def _export_info(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return (bound["grid"].n_points, os.path.getsize(bound["path"]))


COUNTERS = {
    "algebra.gp_coeffs": _gp_info,
    "dynamics.evolve": _evolve_info,
    "dynamics.integrate_trajectories": _trajectory_info,
    "grids.export_csv": _export_info,
}


class Tracer:
    """Holds the spans of a run and patches the package while installed.

    The spans of the repetition in progress are kept whole; when it ends
    they are folded into a per-function table, and only the first traced
    repetition keeps every span, so memory does not grow with run length.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.functions = {}
        self.first_repetition = None
        self.rep = -1

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in MODULES:
            site = _short(module.__name__)
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj) \
                        or not owner.startswith("cliffordqm."):
                    continue
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, f"{_short(owner)}.{obj.__name__}", site))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name: str, site: str):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # called outside a traced repetition
                return fn(*args, **kwargs)
            parent = stack[-1]
            idx = len(spans)
            span = [name, site, parent, 0.0, 0.0, self.rep, 0.0, None]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = perf_counter()
                stack.pop()
                spans[parent][CHILD] += end - span[START]
            if counter is not None:
                span[INFO] = counter(fn, args, kwargs, result)
            return result

        return traced

    # -- repetitions --------------------------------------------------------

    def begin(self, rep: int) -> None:
        """Open the root span of one repetition."""
        self.rep = rep
        self.spans.append([ROOT, "bench", -1, 0.0, 0.0, rep, 0.0, None])
        self._stack.append(0)
        self.spans[0][START] = perf_counter()

    def end(self) -> tuple:
        """Close the root span; returns its wall time and the repetition's spans."""
        root = self.spans[self._stack.pop()]
        root[END] = perf_counter()
        spans = self.spans[:]
        self.spans.clear()
        for span in spans:
            row = self.functions.setdefault(f"{span[SITE]}:{span[NAME]}", [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span[END] - span[START]
            row[2] += self_time(span)
        if self.first_repetition is None:
            self.first_repetition = spans
        return root[END] - root[START], spans

    def summary(self) -> dict:
        """What a run writes out: per function and lookup site, the calls, total
        and self seconds over all traced repetitions, and every span of the
        first traced repetition."""
        return {
            "functions": {k: {"calls": c, "total_s": t, "self_s": st}
                          for k, (c, t, st) in sorted(self.functions.items())},
            "span_fields": ["name", "site", "parent", "start", "end", "rep", "child_s",
                            "info"],
            "first_repetition": self.first_repetition or [],
        }


def self_time(span) -> float:
    return span[END] - span[START] - span[CHILD]


# ---------------------------------------------------------------------------
# per-layer metrics of one repetition

FIELD_CONVERT = {f"spinors.{f}" for f in (
    "g_from_components", "g_from_wavefunction", "spin_field_from_g",
    "components_from_g", "even_field_coeffs", "pseudoscalar_times")}
FRAME_CONVERT = {"spinors.g_from_components", "spinors.g_from_wavefunction",
                 "spinors.spin_field_from_g"}
ORACLE_POINT = {"oracle.matrix_rep", "oracle.rep_trace", "oracle.density_matrix",
                "oracle.blade_names"}
STENCILS = {f"grids.{f}" for f in (
    "deriv", "gradient", "laplacian", "divergence", "curl", "time_derivative")}
STENCIL_FRAMES_READ = 3  # a central time stencil reads frames k-1, k and k+1

# (metric name, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("dynamics.evolve_s", "s"),
    ("dynamics.evolve_ns_per_point_step", "ns"),
    ("dynamics.frames_bytes", "bytes"),
    ("dynamics.trajectories_s", "s"),
    ("dynamics.rk4_us_per_seed_step", "us"),
    ("observables.compute_observables_s", "s"),
    ("observables.compute_observables_calls", "count"),
    ("observables.bohm_energy_s", "s"),
    ("observables.continuity_residual_s", "s"),
    ("observables.spin_transport_residual_s", "s"),
    ("observables.quantum_potential_s", "s"),
    ("observables.frames_converted", "count"),
    ("observables.useful_frame_ratio", "ratio"),
    ("spinors.field_convert_s", "s"),
    ("spinors.field_convert_calls", "count"),
    ("spinors.point_us", "us"),
    ("algebra.gp_coeffs_s", "s"),
    ("algebra.gp_coeffs_calls", "count"),
    ("algebra.gp_coeffs_points", "count"),
    ("algebra.gp_coeffs_ns_per_point", "ns"),
    ("algebra.gp_single_pauli_us", "us"),
    ("algebra.gp_single_schrodinger_us", "us"),
    ("oracle.matrix_rep_us", "us"),
    ("oracle.field_s", "s"),
    ("harness.checks_s", "s"),
    ("harness.parse_config_s", "s"),
    ("grids.sample_s", "s"),
    ("grids.stencil_s", "s"),
    ("grids.stencil_calls", "count"),
    ("grids.export_csv_s", "s"),
    ("grids.export_us_per_row", "us"),
    ("grids.export_bytes", "bytes"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("check.failed_ratio", "ratio"),
)


# Counts computed from call counts and array or file sizes, not measured.
COMPUTED = {
    "dynamics.frames_bytes", "observables.compute_observables_calls",
    "observables.frames_converted", "observables.useful_frame_ratio",
    "spinors.field_convert_calls", "algebra.gp_coeffs_calls", "algebra.gp_coeffs_points",
    "grids.stencil_calls", "grids.export_bytes",
}


def label(name: str) -> str:
    return f"{name} (computed)" if name in COMPUTED else name


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rep_metrics(spans: list, points: int) -> dict:
    """Per-layer metrics of one repetition from its spans.

    points is the number of single points the repetition processed; it is
    the base of spinors.point_us.
    """
    self_s = {}
    calls = {}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    gp_field = [0.0, 0, 0]  # self time, calls, points
    gp_single = {2: [0.0, 0], 8: [0.0, 0]}
    point_steps = frames_bytes = seed_steps = export_rows = export_bytes = 0
    frames_converted = time_stencils = 0
    for span in spans:
        name, st = span[NAME], self_time(span)
        self_s[name] = self_s.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1
        owner = name.split(".", 1)[0]
        layer_s[owner if owner in layer_s else span[SITE]] += st
        info = span[INFO]
        if name == "algebra.gp_coeffs":
            n_points, dim = info
            if n_points > 1:
                gp_field[0] += st
                gp_field[1] += 1
                gp_field[2] += n_points
            else:
                gp_single[dim][0] += st
                gp_single[dim][1] += 1
        elif name == "dynamics.evolve":
            point_steps += info[0]
            frames_bytes += info[1]
        elif name == "dynamics.integrate_trajectories":
            seed_steps += info
        elif name == "grids.export_csv":
            export_rows += info[0]
            export_bytes += info[1]
        if span[SITE] == "observables":
            frames_converted += name in FRAME_CONVERT
            time_stencils += name == "grids.time_derivative"

    def total(names):
        return sum(self_s.get(n, 0.0) for n in names)

    def count(names):
        return sum(calls.get(n, 0) for n in names)

    spinor_point = [n for n in self_s if n.startswith("spinors.") and n not in FIELD_CONVERT]
    oracle_field = [n for n in self_s if n.startswith("oracle.") and n not in ORACLE_POINT]
    out = {
        "dynamics.evolve_s": total(["dynamics.evolve"]),
        "dynamics.evolve_ns_per_point_step":
            1e9 * _ratio(total(["dynamics.evolve"]), point_steps),
        "dynamics.frames_bytes": frames_bytes,
        "dynamics.trajectories_s": total(["dynamics.integrate_trajectories"]),
        "dynamics.rk4_us_per_seed_step":
            1e6 * _ratio(total(["dynamics.integrate_trajectories"]), seed_steps),
        "observables.compute_observables_s": total(["observables.compute_observables"]),
        "observables.compute_observables_calls": count(["observables.compute_observables"]),
        "observables.bohm_energy_s": total(["observables.bohm_energy"]),
        "observables.continuity_residual_s": total(["observables.continuity_residual"]),
        "observables.spin_transport_residual_s": total(["observables.spin_transport_residual"]),
        "observables.quantum_potential_s": total(["observables.quantum_potential"]),
        "observables.frames_converted": frames_converted,
        "observables.useful_frame_ratio":
            _ratio(STENCIL_FRAMES_READ * time_stencils, frames_converted),
        "spinors.field_convert_s": total(FIELD_CONVERT),
        "spinors.field_convert_calls": count(FIELD_CONVERT),
        "spinors.point_us": 1e6 * _ratio(total(spinor_point), points),
        "algebra.gp_coeffs_s": gp_field[0],
        "algebra.gp_coeffs_calls": gp_field[1],
        "algebra.gp_coeffs_points": gp_field[2],
        "algebra.gp_coeffs_ns_per_point": 1e9 * _ratio(gp_field[0], gp_field[2]),
        "algebra.gp_single_pauli_us": 1e6 * _ratio(*gp_single[8]),
        "algebra.gp_single_schrodinger_us": 1e6 * _ratio(*gp_single[2]),
        "oracle.matrix_rep_us":
            1e6 * _ratio(total(["oracle.matrix_rep"]), count(["oracle.matrix_rep"])),
        "oracle.field_s": total(oracle_field),
        "harness.checks_s": total(["harness.run_scenario"]),
        "harness.parse_config_s": total(["harness.parse_config"]),
        "grids.sample_s": total(["grids.sample"]),
        "grids.stencil_s": total(STENCILS),
        "grids.stencil_calls": count(STENCILS),
        "grids.export_csv_s": total(["grids.export_csv"]),
        "grids.export_us_per_row": 1e6 * _ratio(total(["grids.export_csv"]), export_rows),
        "grids.export_bytes": export_bytes,
    }
    for layer, seconds in layer_s.items():
        out[f"{layer}.self_s"] = seconds
    return out


TIME_UNITS = ("s", "ns", "us")


def scale_times(metrics: dict, speed: float) -> dict:
    """The repetition's metrics with every time multiplied by speed, the
    factor that brings it to the reference machine's speed (see run.py)."""
    units = dict(PER_LAYER)
    return {k: v * speed if units[k] in TIME_UNITS else v for k, v in metrics.items()}


def combine(per_rep: list, rep: int) -> dict:
    """Every metric of repetition rep, so that its layer self times add up
    to its wall time; computed counts from the first, so that they repeat
    exactly for a seed whatever the number of repetitions."""
    return {k: per_rep[0][k] if k in COMPUTED else v for k, v in per_rep[rep].items()}
