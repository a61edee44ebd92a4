"""Child process for the set-up time: import, config, initial field.

Run by ``run.py`` in a fresh interpreter.  It prints the wall-clock time
(``time.time()``) at which the first repetition could start; the parent
subtracts the time it started the process.
"""

from __future__ import annotations

import sys
import time

import bootstrap


def main(workload: str, seed: int) -> None:
    bootstrap.prepare()
    import cliffordqm
    import numpy as np

    import workloads

    bootstrap.check_import(cliffordqm)
    wl = workloads.WORKLOADS[workload]
    wl.prepare(wl.make_inputs(np.random.default_rng(seed)))
    print(f"{time.time():.6f}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
