"""Record the benchmark: every workload over several seeds, then traced.

    python3 perfbench/record.py --label NAME

For each workload of BENCHMARK.json it makes one untraced run per seed
(seeds 1..SEEDS) and one traced run (seed 1), each as its own ``run.py``
process with the run length from BENCHMARK.json.  It prints every metric by name with its unit:
for the end-to-end metrics the median over the seeds, the quartiles, the
quartile spread as a share of the median, and the bound it is held to.
It writes everything, with the machine facts, to
perfbench/results/<label>.json, so the trend across commits is read from
the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
SEEDS = 10


def machine_facts() -> dict:
    import numpy
    import scipy

    def getconf(name):
        proc = subprocess.run(["getconf", name], capture_output=True, text=True, check=False)
        return int(proc.stdout) if proc.returncode == 0 and proc.stdout.strip().isdigit() else None

    return {
        "nproc": os.cpu_count(),
        "l1d_bytes": getconf("LEVEL1_DCACHE_SIZE"),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
    }


def run_once(root: Path, command: list, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in command]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of the results file")
    args = parser.parse_args(argv)

    root = bootstrap.prepare()
    import tracing

    bench = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS,
           "machine": machine_facts(), "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(root, bench["command"], name, seed, seconds, 0)
                for seed in range(1, SEEDS + 1)]
        traced = run_once(root, bench["command"], name, 1, seconds, 1)
        e2e = {m: dict(spread([r["metrics"][m]["value"] for r in runs]),
                       unit=runs[0]["metrics"][m]["unit"], bound=bounds[m])
               for m in bounds}
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
            "traced_attempted": traced["attempted"],
            "traced_failed": traced["failed"],
        }
        wl = out["workloads"][name]
        print(f"{name}: {wl['failed']}/{wl['attempted']} repetitions failed "
              f"over {SEEDS} seeds", flush=True)
        for m, s in e2e.items():
            flag = "" if m == "setup_s" or s["spread"] < s["bound"] / 3 else "  UNSTEADY"
            print(f"  {m} = {s['median']:.6g} {s['unit']}  (q1 {s['q1']:.6g}, "
                  f"q3 {s['q3']:.6g}, spread {s['spread']:.4f}, bound {s['bound']}){flag}",
                  flush=True)
        for m, v in traced["metrics"].items():
            print(f"  {tracing.label(m)} = {v['value']:.6g} {v['unit']}", flush=True)

    path = HERE / "results" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
