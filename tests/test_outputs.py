"""The bundled scenarios' output files, pinned by SHA-256.

Every file `run_to_files` writes for a bundled scenario, and the JSON that
`cliffordqm sweep schrodinger_gaussian --levels 3` prints, must keep its
digest.  A change that moves an output byte updates the digest here and says
in CHANGES.md which values moved and why.  The bits depend on numpy's and
scipy's floating-point kernels, so the test skips under other versions than
the ones the digests were recorded with, or another SIMD kernel for exp.
"""

import hashlib

import numpy as np
import pytest
import scipy

from cliffordqm import cli, harness


def _exp_kernel():
    """The SIMD target numpy runs float64 exp on; None where numpy cannot say."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    return opt_func_info("^exp$", "float64")["exp"]["dd"]["current"]


RECORDED = {"numpy": "2.4.6", "scipy": "1.17.1", "exp kernel": "X86_V4"}
RUNNING = {"numpy": np.__version__, "scipy": scipy.__version__, "exp kernel": _exp_kernel()}

DIGESTS = {
    "pauli_superposition": {
        "fields.csv": "f0cee01c5872b61264b748b2ce28da9b9f3987a8e7be86575c34274ae8ba017f",
        "report.json": "4d5c719662fa4bad71749efc067e0d492ed7e75dc7dc9a7b6948639c271d5044",
    },
    "pauli_texture": {
        "fields.csv": "f6a89b93f381114aca5d23e3bbd6b214a83e6aff27ee6ae7439f0ffb909f36bc",
        "report.json": "e30b3cfa180b1474fc585eb73101e6edc880d862c07dfd8ee362bef82942c515",
    },
    "schrodinger_gaussian": {
        "fields.csv": "8d121dc892e6a7ed1f58f1204b38250b5678e1f03311598ac0c03357fcc8223d",
        "report.json": "38debcbe10c8b30a9d2097abf7e14e2b34023e5e8e44f5887367454b12e193c9",
        "trajectories.csv": "00f286a94487a40f06e4bba8f8e787fe5cc027f17df670633e6825934b3cc1da",
    },
}
SWEEP_DIGEST = "24d2c063ab905afa38cb9564f3f90278be49707ffa48554d74fc5a488291e559"

pytestmark = pytest.mark.skipif(
    RUNNING != RECORDED, reason=f"digests recorded with {RECORDED}, running {RUNNING}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_bundled_scenario_is_pinned():
    assert sorted(name for name, _ in harness.list_scenarios()) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bundled_run_writes_the_pinned_files(name, tmp_path):
    harness.run_to_files(harness.load_bundled(name), tmp_path)
    written = {path.name: _sha256(path.read_bytes()) for path in tmp_path.iterdir()}
    assert written == DIGESTS[name]


def test_sweep_prints_the_pinned_json(capsys):
    assert cli.main(["sweep", "schrodinger_gaussian", "--levels", "3"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == SWEEP_DIGEST
