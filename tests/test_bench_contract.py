"""The benchmark's tracer stays bound to the package.

``bench/tracer.py`` wraps named functions at the module attributes where
callers look them up, and counts one solver span and ``n_steps`` steps
per public solver call.  A renamed function, or a public solver that
calls another one, would break the benchmark's traced run without failing
any other test; these checks catch both.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nlcsim.dynamics as dynamics
from nlcsim.config import velocity_shape
from nlcsim.noise import Control, JumpCoefficientSpec, MarkSpace, rng_for, thin_to_control
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


def _tiny_problem():
    grid = TorusGrid(8)
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
    jumps = thin_to_control(ms, cfg.t_final, phi, 1.0 / 0.2, rng_for(3, "contract"))
    return cfg, init, phi, jumps


@pytest.mark.parametrize("name", bench_tracer.SOLVERS)
def test_one_solver_span_and_n_steps_per_call(name, tracer):
    cfg, init, phi, jumps = _tiny_problem()
    args = {
        "solve_skeleton": (init, phi, cfg),
        "solve_small_noise_sde": (init, 0.2, phi, cfg, 3),
        "solve_sde_with_jumps": (init, 0.2, jumps, cfg),
        "solve_stochastic_convolution": (init, 0.2, phi, cfg, 3),
    }[name]
    traj = getattr(dynamics, name)(*args)
    assert not traj.diverged
    solver_spans = [s[3] for s in tracer.spans if s[3].split(".", 1)[1] in bench_tracer.SOLVERS]
    assert solver_spans == [f"dynamics.{name}"]
    metrics = tracer.layer_metrics()
    assert metrics["dynamics.solve.calls"] == 1
    assert metrics["dynamics.steps"] == cfg.n_steps
    assert metrics["spectral.fft.calls_in_solves"] > 0
