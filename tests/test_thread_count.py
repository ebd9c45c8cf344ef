"""Results do not depend on the BLAS thread count, and a guarded overflow is silent.

Up to ``spectral._DENSE_MAX_N`` modes the transform pair runs as OpenBLAS
matrix products, so the thread-count guarantee rests on OpenBLAS: an N=16
batch of 3 jump-driven paths and a 1-cell rate solve, run in a new process
with ``OPENBLAS_NUM_THREADS`` set to 1 and to 2, equal the run in this
process bit for bit.  A rate run whose line-search trials overflow, which
the blow-up guard handles, prints no ``RuntimeWarning``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlcsim.config import parse_config_text
from nlcsim.dynamics import draw_jumps, solve_path_batch, solve_skeleton
from nlcsim.ldp import RateProblem, optimize_control
from nlcsim.noise import Control

ROOT = Path(__file__).resolve().parents[1]
N16 = "seed = 1\ngrid.modes = 16\nsolver.t_final = 0.25\nsolver.dt = 0.0125\n"


def outputs() -> list[np.ndarray]:
    """Final states of an N=16 batch of 3 paths, then the g* and history of a 1-cell rate solve."""
    cfg = parse_config_text(N16)
    scfg = cfg.build_solver_config(energy_diagnostics=False)
    init = cfg.build_init(scfg.grid)
    phi = Control.constant(scfg.t_final, 1.5, 1, scfg.mark_space.size)
    jumps = [draw_jumps(0.2, phi, scfg, seed) for seed in range(3)]
    out = []
    for state in (traj.final_state() for traj in solve_path_batch(init, 0.2, jumps, scfg)):
        out += [state.u_hat, state.theta_hat]
    target = solve_skeleton(init, phi, scfg, keep_snapshots=False).final_state()
    sol = optimize_control(RateProblem(init, target, scfg, n_cells=1, max_iters=3))
    return out + [sol.g_star.values, np.array(sol.history)]


def _env(**extra) -> dict:
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), **extra}


@pytest.mark.parametrize("threads", ("1", "2"))
def test_a_new_process_at_each_thread_count_repeats_the_run(tmp_path, threads):
    path = tmp_path / "outputs.npz"
    code = f"import numpy as np, test_thread_count as t; np.savez({str(path)!r}, *t.outputs())"
    subprocess.run([sys.executable, "-c", code], env=_env(OPENBLAS_NUM_THREADS=threads), check=True)
    with np.load(path) as saved:
        got = [saved[f"arr_{i}"] for i in range(len(saved.files))]
    want = outputs()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_a_guarded_overflow_prints_no_runtime_warning(tmp_path):
    cfg_path = tmp_path / "rate.ini"
    # the second iteration's line search tries a tilt whose run overflows
    cfg_path.write_text("seed = 1\ngrid.modes = 8\nrate.target_tilt = 100\nrate.max_iters = 2\n")
    run = subprocess.run(
        [sys.executable, "-m", "nlcsim.cli", "rate", "--config", str(cfg_path), "--out", str(tmp_path / "rate")],
        env=_env(), capture_output=True, text=True, check=True,
    )
    assert run.stdout.startswith("rate: ")
    assert "RuntimeWarning" not in run.stderr
