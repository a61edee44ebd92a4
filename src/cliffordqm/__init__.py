"""Non-relativistic quantum mechanics inside real Clifford algebras.

Schrodinger particles live in Cl(0,1), Pauli particles in Cl(3,0).  States
are minimal left ideal elements, densities are Clifford density elements,
and the Bohm fields (momentum, energy, quantum potential, currents) come
out of purely algebraic bilinears.  Every algebraic result has a matching
standard wavefunction oracle for cross-checking.

The top level holds only the version: import a name from the module that
defines it, as in ``from cliffordqm import algebra as alg``.
"""

__version__ = "0.1.0"
