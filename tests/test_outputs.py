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
        "fields.csv": "e5e6fc1164e01398c2f9e28721d534158050585e91d98b60b716a228da0c5ef2",
        "report.json": "1affe5671fec32b79490dffe63125f8cacfd391179385758b1306c97f6d0f622",
    },
    "pauli_texture": {
        "fields.csv": "724ffcb900fd8efa3a955a69ddf59757913a33665eb9d7cb21bee7892cee23bd",
        "report.json": "2ec55b98ea5bb7afe49074f003b2364461b87762e42e66fdfa2075e24f371a08",
    },
    "schrodinger_gaussian": {
        "fields.csv": "6eac1aadf9ffde403761f4638c7d684622a812ba6530eb77c07f02389212048d",
        "report.json": "e28308460740ff67d3106e37a8d9b7a536175c4a38f39d51286fe89d7e92fcd0",
        "trajectories.csv": "b54b8507b25d484176e4c52d3813763515d6b6224d3e7f328ca4e0ebdb87ee42",
    },
}
SWEEP_DIGEST = "81b106c196b4cc80722863bbf02518483deda6d4da7dc1edd48fc3a8333ce468"

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
