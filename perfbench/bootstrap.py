"""Process set-up shared by every benchmark entry point.

It must run before numpy is imported: the BLAS and OpenMP pools read their
thread counts once, at import.  It also makes ``cliffordqm`` import from the
``src`` directory of the checkout the benchmark sits in, never from an
installed copy, so a checkout without the package cannot be measured.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class MissingPackage(RuntimeError):
    pass


def prepare() -> Path:
    """Pin the process (and the children it starts) to one CPU and every
    thread pool to one thread, and put the checkout's src first."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    add_src()
    return ROOT


def add_src() -> None:
    if not (SRC / "cliffordqm" / "__init__.py").is_file():
        raise MissingPackage(f"no cliffordqm package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_import(module) -> None:
    """Refuse a cliffordqm that was imported from outside the checkout."""
    if SRC not in Path(module.__file__).resolve().parents:
        raise MissingPackage(f"cliffordqm imported from {module.__file__}, not {SRC}")
