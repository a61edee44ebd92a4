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
        "fields.csv": "0759ec15988bf9435390ab98bbc38d7310c496c880cca49783ab8918d89ebd16",
        "report.json": "2e3b3ee6e194350fa2f189ba2799eb91c006f4e3e875c66da2aa55267870032b",
        "trajectories.csv": "7e9a0379209cb71904c0ec2495d86b7c16e6175812b8ae06d466a44536da0c2a",
    },
}
SWEEP_DIGEST = "b3681068399443503c8b790a50931b3500a0ac04a6e80e2657a751f7463fbec9"

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
