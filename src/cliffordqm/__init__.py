"""Non-relativistic quantum mechanics inside real Clifford algebras.

Schrodinger particles live in Cl(0,1), Pauli particles in Cl(3,0).  States
are minimal left ideal elements, densities are Clifford density elements,
and the Bohm fields (momentum, energy, quantum potential, currents) come
out of purely algebraic bilinears.  Every algebraic result has a matching
standard wavefunction oracle for cross-checking.

The top level holds the version and the process's allocator policy: import
a name from the module that defines it, as in
``from cliffordqm import algebra as alg``.

Allocator policy.  Under glibc, importing the package sets malloc's mmap
threshold to 32 MiB and its trim threshold to 256 MiB, once.  A freed field
temporary (0.5-5 MB on a 40^3 grid) then stays in the heap for the next
one, instead of going back to the kernel and being faulted in again: a
repeated 40^3 Pauli run faults 2-5 pages a repetition instead of about
15,400 (glibc 2.36, x86-64).
Both are set because setting either one alone turns off glibc's dynamic
adjustment of the other.  The trade-off: the policy is process-wide, for
the program that imports the package, and it overrides any
``MALLOC_MMAP_THRESHOLD_``/``MALLOC_TRIM_THRESHOLD_`` tuning set in the
environment.  The trim threshold holds per malloc arena, so each arena (a
threaded program has several) may keep up to 256 MiB of freed memory at the
top of its heap instead of returning it; freed chunks below an arena's top
are never trimmed, whatever the threshold.  The bundled runs' peak RSS does
not move, and arrays over 32 MiB are still mapped afresh on each use.  No
computed bit changes.  Without glibc the process is left as it is.
"""

import ctypes
import os

__version__ = "0.1.0"

# mallopt(3) parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """The allocator policy of the module docstring.  32 MiB is glibc's
    64-bit maximum mmap threshold; the trim threshold is set only if the
    mmap threshold was taken."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()
