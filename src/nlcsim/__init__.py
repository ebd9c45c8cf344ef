"""Pseudospectral 2D nematic liquid-crystal flow with jump noise.

Layers: ``spectral`` (half-layout coefficient arrays and transforms),
``operators`` (the fused explicit step, its transpose, the nonlinearity
and energies, and their term-by-term array reference), ``noise``
(marked Poisson machinery, entropy cost, exponential tilts), ``dynamics``
(the skeleton solver, the jump draw and the batched jump-SDE solver),
``ldp`` (rate-function optimization, small-noise Monte Carlo, importance
sampling), ``config``/``cli``/``verify`` (experiment orchestration).
"""

from .spectral import TorusGrid
from .operators import PolynomialNonlinearity
from .noise import Control, JumpCoefficientSpec, JumpSample, MarkSpace, cost_LT, entropy_l
from .dynamics import (
    SolverConfig,
    SpectralState,
    Trajectory,
    draw_jumps,
    solve_path_batch,
    solve_skeleton,
)
from .ldp import RateProblem, RateSolution, optimize_control, rate_objective
from .config import ExperimentConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "Control",
    "ExperimentConfig",
    "JumpCoefficientSpec",
    "JumpSample",
    "MarkSpace",
    "PolynomialNonlinearity",
    "RateProblem",
    "RateSolution",
    "SolverConfig",
    "SpectralState",
    "TorusGrid",
    "Trajectory",
    "cost_LT",
    "draw_jumps",
    "entropy_l",
    "optimize_control",
    "parse_config",
    "rate_objective",
    "solve_path_batch",
    "solve_skeleton",
]
