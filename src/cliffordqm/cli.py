"""Command line front end.

Exit codes: 0 on success, 1 when a run completes but a residual check
fails, 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness


def _load(config_arg: str) -> harness.Scenario:
    path = Path(config_arg)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise harness.ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
        return harness.parse_config(text, str(path))
    # fall back to a bundled scenario name
    return harness.load_bundled(config_arg)


def _out_dir(args, sc: harness.Scenario) -> Path:
    """The run's output directory, refused before the run when it or one of
    its parents is an existing file."""
    out = Path(args.out) if args.out else harness.default_out_root() / sc.name
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise harness.ConfigError(f"output directory {out}: {path} is not a directory")
    return out


def _cmd_run(args) -> int:
    sc = _load(args.config)
    out = _out_dir(args, sc)
    report = harness.run_to_files(sc, out)
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{sc.name}: {status} (report written to {out / 'report.json'})")
    for name, stats in sorted(report["residuals"].items()):
        mark = "ok " if stats["passed"] else "FAIL"
        print(f"  [{mark}] {name}: max_abs={stats['max_abs']:.3e} "
              f"l2={stats['l2']:.3e} tol={stats['tolerance']:.3e}")
    return 0 if report["passed"] else 1


def _cmd_sweep(args) -> int:
    sc = _load(args.config)
    result = harness.sweep(sc, args.levels)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_list(args) -> int:
    entries = harness.list_scenarios()
    if args.json:
        print(json.dumps([{"name": n, "description": d} for n, d in entries],
                         indent=2))
    else:
        for name, desc in entries:
            print(f"{name}: {desc}" if desc else name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffordqm",
        description="Clifford algebra quantum mechanics scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write reports")
    p_run.add_argument("config", help="config file path or bundled scenario name")
    p_run.add_argument("--out", help="output directory (default: runs/<name>)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid refinement convergence study")
    p_sweep.add_argument("config", help="config file path or bundled scenario name")
    p_sweep.add_argument("--levels", type=int, required=True,
                         help="number of refinement levels (>= 3)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (harness.ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except harness.RunAborted as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
