"""Benchmark of the cliffordqm pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in ``workloads.py``.  A run is a closed loop in
one process, pinned to one CPU with every BLAS/OpenMP pool at one thread:
it generates a repetition's inputs from the seed, runs the pipeline, checks
the output, and starts the next repetition when the previous one is done,
for S seconds.  The first repetition warms caches and is checked but not
timed.

--trace 0 reports the end-to-end metrics:
  setup_s             median over fresh processes of the time from starting
                      the interpreter to the first repetition: importing
                      cliffordqm, parsing or generating the config and
                      sampling the initial field
  wall_s              median time of one checked repetition
  throughput          work per second at wall_s: grid-point steps for the
                      field workloads, points for algebra_points
  peak_rss_mb         the process's memory high-water mark
  max_residual_ratio  the largest max_abs / tolerance over the checks of a
                      repetition, median over the repetitions (a maximum
                      over them would grow with the number of repetitions
                      that fit in a run); a repetition above 1 fails
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py`` from the traced repetition with the
median traced wall time, so that its layer self times add up to
trace.wall_s; the tracing overhead is trace.wall_s over the untraced
median.  Computed counts come from the first traced repetition.

Times are given at the reference machine's speed.  Other tenants of a
shared host slow this process by up to 2x for seconds at a time, which no
statistic over one run can remove.  So a fixed calibration work that does
not touch cliffordqm is timed before and after every repetition and set-up
probe, and each time of that repetition or probe, per-layer times too, is
divided by the slow-down it shows.  The raw times are kept in the result
file next to the scaled ones.

Human-readable metrics go to stderr; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  The pipeline's
output files, the full result (result-seed<N>.json) and a summary of the
trace spans are written under .bench_out/<workload>/trace<0|1>/ in the
checkout.  Exit status is 0 when the run completed, whatever the checks
found, and 2 when the checkout holds no cliffordqm package.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bootstrap

SETUP_REPEATS = 3
MIN_TIMED_REPS = 4
CHILD_TIMEOUT_S = 120
REF_CALIBRATION_S = 0.0249

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
    ("max_residual_ratio", "ratio"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _calibration_work() -> None:
    """Fixed work that does not touch cliffordqm, of the kinds the workloads
    do: small banded solves, FFTs and array calls, pure-Python loops, and
    passes over an array larger than the caches."""
    import numpy as np
    from scipy.linalg import solve_banded

    ab = np.zeros((3, 64), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = -0.1j
    ab[1] = 1.0 + 0.2j
    rhs = np.ones(64, dtype=complex)
    for _ in range(180):
        solve_banded((1, 1), ab, rhs)
    small = np.arange(64.0)
    for _ in range(180):
        np.stack([small, small], axis=-1).sum(axis=-1)
        np.where(small > 3.0, small, 1.0)
        np.fft.ifft(np.fft.fft(small))
    a, b, out = np.arange(8.0), np.arange(8.0) + 0.5, np.zeros(8)
    for _ in range(24):
        for i in range(8):
            for j in range(8):
                out[..., (i + j) % 8] += a[..., i] * b[..., j]
    table = {}
    for i in range(18000):
        table[i % 5] = table.get(i % 5, 0) + len(table)
    acc = 0.0
    for i in range(30000):
        acc += (i % 7) * 0.5
    mid = np.arange(512.0)
    for _ in range(1500):
        mid = mid * 1.000001 + 1e-9
    big = np.ones(1 << 20)
    for _ in range(12):
        big *= 1.0000001


def calibrate() -> float:
    """Seconds the host takes now for the calibration work, relative to the
    reference machine (2-vCPU x86-64 VM, Python 3.11, numpy 2.4, scipy 1.17,
    no other tenant busy): 1.0 at reference speed, 1.5 when the process runs
    a third slower."""
    t0 = time.perf_counter()
    _calibration_work()
    return (time.perf_counter() - t0) / REF_CALIBRATION_S


def measure_setup(root: Path, wl, seed: int) -> tuple:
    """Seconds from starting a fresh interpreter to the first repetition,
    raw and scaled to the reference speed."""
    probe = Path(__file__).with_name("setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        started = time.time()
        proc = subprocess.run([sys.executable, str(probe), wl.name, str(seed)],
                              cwd=root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw.append(float(proc.stdout.split()[-1]) - started)
        scaled.append(raw[-1] * 2.0 / (before + calibrate()))
    return raw, scaled


def run_loop(wl, seed: int, seconds: float, out_dir: Path, tracer=None) -> dict:
    """Closed loop of checked repetitions; every second one traced if tracer."""
    import numpy as np

    import tracing

    rng = np.random.default_rng(seed)
    walls, scaled, traced_scaled, layer_metrics, ratios, problems = [], [], [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    rep = 0
    cal_before = calibrate()
    while time.perf_counter() < deadline or len(walls) < MIN_TIMED_REPS:
        inputs = wl.make_inputs(rng)
        traced = tracer is not None and rep % 2 == 1
        if traced:
            tracer.install()
            tracer.begin(rep)
        t0 = time.perf_counter()
        try:
            outcome = wl.run(inputs, out_dir)
        except Exception:  # a crashed repetition is a failed one; keep measuring
            outcome = None
            problems.append(traceback.format_exc())
        t1 = time.perf_counter()
        if traced:
            traced_wall, spans = tracer.end()
            tracer.uninstall()
        cal_after = calibrate()
        speed = 2.0 / (cal_before + cal_after)
        cal_before = cal_after
        attempted += 1
        if outcome is not None:
            if outcome.ratios:
                ratios.append(outcome.worst_ratio)
            if not outcome.ok:
                problems.append(f"repetition {rep}: " + "; ".join(outcome.problems))
        if outcome is None or not outcome.ok:
            failed += 1
        if traced:
            traced_scaled.append(traced_wall * speed)
            layer_metrics.append(tracing.scale_times(
                tracing.rep_metrics(spans, getattr(wl, "points", 0)), speed))
        elif rep > 0:
            walls.append(t1 - t0)
            scaled.append((t1 - t0) * speed)
        rep += 1
    return {"attempted": attempted, "failed": failed, "walls": walls, "scaled": scaled,
            "traced_scaled": traced_scaled, "layer_metrics": layer_metrics,
            "ratios": ratios, "problems": problems}


def end_to_end_metrics(wl, loop: dict, setup: list) -> dict:
    wall = statistics.median(loop["scaled"])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "throughput": wl.work() / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_residual_ratio": statistics.median(loop["ratios"]) if loop["ratios"] else 0.0,
    }


def per_layer_metrics(loop: dict) -> dict:
    import tracing

    traced = loop["traced_scaled"]
    median_rep = traced.index(statistics.median_low(traced))
    out = tracing.combine(loop["layer_metrics"], median_rep)
    out["trace.wall_s"] = traced[median_rep]
    out["trace.overhead_ratio"] = out["trace.wall_s"] / statistics.median(loop["scaled"])
    out["check.failed_ratio"] = loop["failed"] / loop["attempted"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        root = bootstrap.prepare()
        import cliffordqm

        bootstrap.check_import(cliffordqm)
    except (bootstrap.MissingPackage, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    out_dir = root / ".bench_out" / wl.name / f"trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    setup_raw, setup = ([], []) if args.trace else measure_setup(root, wl, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    loop = run_loop(wl, args.seed, args.seconds, out_dir, tracer)
    if args.trace:
        metrics = per_layer_metrics(loop)
        units = dict(tracing.PER_LAYER)
    else:
        metrics = end_to_end_metrics(wl, loop, setup)
        units = dict(END_TO_END)

    for problem in loop["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{wl.name} {tracing.label(name)} = {value:.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    detail = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_raw_s=setup_raw,
                  setup_s=setup, walls_raw_s=loop["walls"], walls_s=loop["scaled"],
                  traced_walls_s=loop["traced_scaled"],
                  ratios=loop["ratios"], problems=loop["problems"])
    with open(out_dir / f"result-seed{args.seed}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        with open(out_dir / "spans.json", "w") as fh:
            json.dump(tracer.summary(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
