"""Bohm trajectories for a spreading free Gaussian packet.

Evolves the packet with Crank-Nicolson, integrates a fan of trajectories
through the velocity field, and compares the endpoints with the exact
scaling law x(t) = x0 sqrt(1 + (t / 2 m sigma^2)^2).

Run with:  python3 demos/bohm_trajectories.py [out.csv]
"""

import sys

import numpy as np

from cliffordqm import dynamics as dy
from cliffordqm import grids as gd
from cliffordqm import observables as ob


def main(out_path=None):
    m, sigma = 1.0, 1.0
    grid = gd.Grid.line(-16.0, 16.0, 512)
    psi0 = gd.sample(gd.GaussianPacket(sigma=sigma), grid)
    psi0 /= dy.norm(psi0, grid)

    t_final = 2.0 * m * sigma ** 2
    dt = 1e-3
    cfg = dy.EvolutionConfig(m=m, dt=dt, steps=int(t_final / dt))
    print(f"evolving {cfg.steps} Crank-Nicolson steps to t = {t_final} ...")
    series = dy.evolve(psi0, grid, cfg)

    stride = 10
    stack = np.stack(series.frames[::stride], axis=grid.dim)
    v_series, masks = ob.velocity_series(grid, stack, series.times[::stride], m)

    seeds = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    traj = dy.integrate_trajectories(v_series, seeds, masks)

    factor = np.sqrt(1.0 + (t_final / (2.0 * m * sigma ** 2)) ** 2)
    print(f"\nexact endpoint scale factor: {factor:.6f}")
    print(f"{'seed':>8} {'final':>10} {'exact':>10} {'rel err':>10}")
    for i, x0 in enumerate(seeds[:, 0]):
        xf = traj.paths[-1, i, 0]
        exact = x0 * factor
        rel = abs(xf - exact) / max(abs(exact), 1e-12)
        print(f"{x0:8.3f} {xf:10.5f} {exact:10.5f} {rel:10.2e}")

    print("\n1D non-crossing preserved:", dy.ordering_preserved(traj.paths))
    if out_path:
        traj.to_csv(out_path)
        print("trajectories written to", out_path)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
