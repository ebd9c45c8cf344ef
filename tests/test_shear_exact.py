"""Exact check on shear flows: the scheme is a scalar recursion per Fourier coefficient.

Initial velocity ``shear_x:0.3:1``, director zero, and the marks
``shear_x:0.05:1`` and ``shear_x:0.05:2`` with weights (1, 0.5) and gains
0: convection, director stress and relaxation all vanish, the director
stays exactly zero, and each velocity coefficient follows
c <- F (c + sum_i t_i shape_i) (``oracle.shear_iterates``), with t the
skeleton's dt w (g - 1) or the jump SDE's eps n - dt w.  N = 8 and 16 run
the dense transform products, N = 64 the pocketfft passes.
"""

import numpy as np
import pytest

from nlcsim.config import velocity_shape
from nlcsim.dynamics import SolverConfig, SpectralState, draw_jumps, solve_path_batch, solve_skeleton
from nlcsim.noise import Control, JumpCoefficientSpec, MarkSpace
from nlcsim.spectral import TorusGrid

from oracle import jump_shear_table, shear_iterates, skeleton_shear_table

WEIGHTS = (1.0, 0.5)
DT, T_FINAL, EPS = 0.01, 0.5, 0.1
TOL = 1e-14


def shear_case(n: int):
    """(config, initial state, mark shapes) of the shear problem on an n x n grid."""
    grid = TorusGrid(n)
    shapes = np.stack([velocity_shape(grid, f"shear_x:0.05:{k}") for k in (1, 2)])
    cfg = SolverConfig(
        grid=grid, dt=DT, t_final=T_FINAL, mark_space=MarkSpace(WEIGHTS),
        jump_spec=JumpCoefficientSpec(shapes, (0.0, 0.0)),
    )
    u0 = velocity_shape(grid, "shear_x:0.3:1")
    return cfg, SpectralState(grid, u0, np.zeros_like(u0)), shapes


@pytest.mark.parametrize("n", (8, 16, 64))
def test_skeleton_under_a_random_tilt_is_the_shear_recursion(n):
    cfg, init, shapes = shear_case(n)
    tilt = Control(T_FINAL, np.random.default_rng(n).uniform(0.2, 2.5, size=(5, 2)))
    traj = solve_skeleton(init, tilt, cfg)
    expect = shear_iterates(init.u_hat, shapes, skeleton_shear_table(tilt, WEIGHTS, DT, cfg.n_steps), DT)
    assert len(traj.snapshots) == len(expect) == cfg.n_steps + 1
    for snap, c in zip(traj.snapshots, expect):
        assert np.max(np.abs(snap.u_hat - c)) <= TOL
        assert not np.any(snap.theta_hat)


@pytest.mark.parametrize("n", (8, 16, 64))
def test_jump_sde_on_a_drawn_sample_is_the_shear_recursion(n):
    cfg, init, shapes = shear_case(n)
    sample = draw_jumps(EPS, None, cfg, seed=n)
    assert set(sample.marks.tolist()) == {0, 1}
    expect = shear_iterates(init.u_hat, shapes, jump_shear_table(sample, EPS, WEIGHTS, DT, cfg.n_steps), DT)
    errors, theta_zero = [], []

    def observe(k, paths, u_hat, theta_hat):
        errors.append(np.max(np.abs(u_hat[0] - expect[k])))
        theta_zero.append(not np.any(theta_hat))

    (traj,) = solve_path_batch(init, EPS, [sample], cfg, on_snapshot=observe)
    assert traj.status == "ok" and len(errors) == cfg.n_steps + 1
    assert max(errors) <= TOL and all(theta_zero)
    assert np.max(np.abs(traj.final_state().u_hat - expect[-1])) <= TOL
