"""Pauli spin texture: algebraic Bohm fields against the standard oracle.

Builds a Gaussian-weighted Euler-angle texture, then prints the agreement
between the three momentum routes, the quantum potential split, and the
current decomposition.

Run with:  python3 demos/spin_texture.py
"""

import numpy as np

from cliffordqm import grids as gd
from cliffordqm import observables as ob
from cliffordqm import oracle


def main():
    m = 1.0
    grid = gd.Grid.line(-8.0, 8.0, 257)
    d = gd.EulerTexture(theta0=1.1, theta_k=(0.25, 0, 0), phi_k=(0.2, 0, 0),
                        chi_k=(0.5, 0, 0), sigma=1.5)
    psi = gd.sample(d, grid)
    state = ob.SpinorField(grid, psi)
    support = state.mask & ob.support_mask(state.rho)
    h = grid.spacing[0]
    print(f"grid: n={grid.shape[0]} h={h:.4f}, support covers "
          f"{support.mean() * 100:.0f}% of points")

    print("\n-- Bohm momentum, three routes --")
    P_alg = state.P
    P_w = ob.bohm_momentum_weighted(state)
    P_orc = oracle.momentum_density(psi, grid) / np.where(
        support, state.rho, 1.0)[..., None]
    print("algebraic vs weighted-mean max gap:",
          np.max(np.abs(P_alg - P_w)[support]))
    print("algebraic vs oracle       max gap:",
          np.max(np.abs(P_alg - P_orc)[support]))
    print("(second order: expect a few times h^2 =", f"{h ** 2:.2e})")

    print("\n-- quantum potential split --")
    qp = ob.quantum_potential(state, m)
    print("max |Q - Q1 - Q2|:", np.max(np.abs(qp.Q - qp.Q1 - qp.Q2)[support]))
    center = grid.shape[0] // 2
    print(f"at x=0: Q = {qp.Q[center]:.6f}, "
          f"Q1 = {qp.Q1[center]:.6f} (amplitude), "
          f"Q2 = {qp.Q2[center]:.6f} (spin)")

    print("\n-- current decomposition --")
    cur = ob.pauli_current(state, m)
    total = oracle.messiah_current(psi, grid, m)
    gap = np.sqrt(((total - cur.J_conv - cur.J_rot) ** 2).sum(axis=-1))
    print("oracle total vs J_conv + J_rot max gap:", np.max(gap[support]))
    frac = np.abs(cur.J_rot[support]).max() / max(np.abs(cur.J_conv[support]).max(), 1e-300)
    print(f"rotational current is {frac:.2f}x the convective peak here")

    print("\n-- spin field --")
    norms = np.linalg.norm(state.spin, axis=-1)
    print("max | |s| - 1/2 | on support:", np.max(np.abs(norms - 0.5)[support]))


if __name__ == "__main__":
    main()
