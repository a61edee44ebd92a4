"""Non-relativistic quantum mechanics inside real Clifford algebras.

Schrodinger particles live in Cl(0,1), Pauli particles in Cl(3,0).  States
are minimal left ideal elements, densities are Clifford density elements,
and the Bohm fields (momentum, energy, quantum potential, currents) come
out of purely algebraic bilinears.  Every algebraic result has a matching
standard wavefunction oracle for cross-checking.
"""

from .algebra import (
    DEFAULT_TOL,
    PAULI,
    SCHRODINGER,
    AlgebraMismatchError,
    Multivector,
    Signature,
    algebra_trace,
    central_unit,
    clifford_conjugate,
    commutator_pm,
    geometric_product,
    idempotent,
    is_idempotent,
)
from .dynamics import (
    EvolutionConfig,
    TrajectorySet,
    evolve,
    integrate_trajectories,
    ordering_preserved,
)
from .grids import (
    Axis,
    EulerTexture,
    GaussianPacket,
    Grid,
    GridError,
    HarmonicGroundState,
    PauliSuperposition,
    PlaneWave,
    SnapshotSeries,
    export_csv,
    sample,
)
from .harness import ConfigError, Scenario, load_bundled, parse_config, run_to_files, sweep
from .observables import (
    BohmObservables,
    SpinorField,
    bohm_energy,
    compute_observables,
    expectation,
    pauli_current,
    quantum_potential,
    residual_stats,
    support_mask,
    window,
)
from .spinors import (
    CliffordDensityElement,
    IdealSpinor,
    cde,
    from_components,
    from_euler,
    from_wavefunction,
    spin_vector,
    to_euler,
    to_wavefunction,
)

__version__ = "0.1.0"
