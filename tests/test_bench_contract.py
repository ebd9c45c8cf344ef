"""The benchmark's tracer stays bound to the package.

``bench/tracer.py`` wraps named functions at the module attributes where
callers look them up, and counts one solver span and ``n_steps`` steps
per public solver call.  A renamed function, or a public solver that
calls another one, would break the benchmark's traced run without failing
any other test; these checks catch both.  Its ``spectral.fft`` counters
see numpy's transforms only, so they read 0 on grids small enough for the
dense DFT products.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nlcsim.dynamics as dynamics
from nlcsim.config import velocity_shape
from nlcsim.noise import Control, JumpCoefficientSpec, MarkSpace
from nlcsim.spectral import TorusGrid

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nlcsim_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_tracer = _load_tracer()


@pytest.fixture
def tracer():
    t = bench_tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_binding_resolves_and_uninstall_restores():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in bench_tracer._bindings()]
    fft2 = np.fft.fft2
    t = bench_tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    assert np.fft.fft2 is fft2


def _tiny_problem(n):
    grid = TorusGrid(n)
    shape = velocity_shape(grid, "shear_x:0.1")
    ms = MarkSpace(weights=(2.0,))
    cfg = dynamics.SolverConfig(
        grid=grid,
        dt=1e-2,
        t_final=0.03,
        mark_space=ms,
        jump_spec=JumpCoefficientSpec(shapes=shape[None], gains=(0.05,)),
    )
    init = dynamics.SpectralState(grid, shape, np.zeros_like(shape))
    phi = Control.constant(cfg.t_final, 1.5)
    return cfg, init, phi


# the tracer's solvers that dynamics still defines; it skips the others
DEFINED_SOLVERS = [name for name in bench_tracer.SOLVERS if hasattr(dynamics, name)]


def test_the_skeleton_solver_is_traced():
    assert "solve_skeleton" in DEFINED_SOLVERS


@pytest.mark.parametrize("name", DEFINED_SOLVERS)
def test_one_solver_span_and_n_steps_per_call(name, tracer):
    for n, numpy_transforms in ((8, False), (64, True)):  # dense DFT products at N = 8
        tracer.reset()
        cfg, init, phi = _tiny_problem(n)
        args = {"solve_skeleton": (init, phi, cfg)}[name]
        traj = getattr(dynamics, name)(*args)
        assert not traj.diverged
        solver_spans = [s[3] for s in tracer.spans if s[3].split(".", 1)[1] in bench_tracer.SOLVERS]
        assert solver_spans == [f"dynamics.{name}"]
        metrics = tracer.layer_metrics()
        assert metrics["dynamics.solve.calls"] == 1
        assert metrics["dynamics.steps"] == cfg.n_steps
        assert (metrics["spectral.fft.calls_in_solves"] > 0) == numpy_transforms
