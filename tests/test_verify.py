"""``nlcsim verify`` checks the fused step that runs.

Every ``operators/*`` check calls ``operators.explicit_rhs`` or
``operators.explicit_rhs_transpose``, looked up on the module, so a defect
in the fused step shows as an operator FAIL.  Two defects are pinned here:
the director stress dropped from the velocity equation, and the sign of the
advection term flipped.  The references the step is compared with
(``operators.convection_B``, ``operators.director_stress_M`` and
``noise.eval_G``) are looked up the same way, so a wrong reference fails
the one check that reads it.
"""

import pytest

from nlcsim import noise, operators, verify
from nlcsim.spectral import TorusGrid

from oracle import random_divergence_free_field, random_vector_field, state_of

SEED = 3
FUSED = operators.explicit_rhs
STRESS = operators.director_stress_M


def without_stress(u_hat, theta_hat, grid, chi1=1.0, chi2=1.0, nl=operators.DEFAULT_NONLINEARITY, with_f=False):
    """The fused step with chi2 = 0 in the velocity tensor: no director stress."""
    return FUSED(u_hat, theta_hat, grid, chi1, 0.0, nl, with_f)


def flipped_advection(u_hat, theta_hat, grid, chi1=1.0, chi2=1.0, nl=operators.DEFAULT_NONLINEARITY, with_f=False):
    """The fused step with +chi1 (u . grad) theta in the director equation."""
    nu, ntheta, f = FUSED(u_hat, theta_hat, grid, chi1, chi2, nl, with_f)
    advection = -FUSED(u_hat, theta_hat, grid, chi1, chi2, None)[1]
    return nu, ntheta + 2.0 * advection, f


def failed_operator_checks(monkeypatch, step) -> set[str]:
    monkeypatch.setattr(operators, "explicit_rhs", step)
    return {r.name for r in verify.check_operators(SEED) if not r.passed}


def test_operator_checks_pass_on_the_fused_step():
    results = verify.check_operators(SEED)
    assert "transpose-dot-product" in {r.name for r in results}
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_operator_checks_fail_without_the_stress(monkeypatch):
    failed = failed_operator_checks(monkeypatch, without_stress)
    assert {"stress-weak-form", "advection-stress-cancellation", "transpose-dot-product"} <= failed


def test_operator_checks_fail_with_the_advection_sign_flipped(monkeypatch):
    failed = failed_operator_checks(monkeypatch, flipped_advection)
    assert {"convection-weak-form", "advection-stress-cancellation", "transpose-dot-product"} <= failed


@pytest.mark.parametrize("step", (without_stress, flipped_advection))
def test_mutants_differ_from_the_fused_step(step, rng):
    # each wrapper changes one output of the step, and only that one
    grid = TorusGrid(16)
    state = state_of(random_divergence_free_field(grid, rng, kmax=5), random_vector_field(grid, rng, kmax=5))
    good = FUSED(state.u_hat, state.theta_hat, grid)
    bad = step(state.u_hat, state.theta_hat, grid)
    changed = [not (a == b).all() for a, b in zip(good[:2], bad[:2])]
    assert changed == ([True, False] if step is without_stress else [False, True])


def failed_checks(check) -> set[str]:
    return {r.name for r in check(SEED) if not r.passed}


def test_a_scaled_stress_reference_fails_the_stress_weak_form(monkeypatch):
    monkeypatch.setattr(operators, "director_stress_M", lambda t1, t2: 0.99 * STRESS(t1, t2))
    assert failed_checks(verify.check_operators) == {"stress-weak-form"}


def test_a_zero_convection_reference_fails_the_convection_weak_form(monkeypatch):
    monkeypatch.setattr(operators, "convection_B", lambda u, v: 0.0 * u)
    assert failed_checks(verify.check_operators) == {"convection-weak-form"}


def test_a_jump_coefficient_without_its_gain_fails_the_lipschitz_check(monkeypatch):
    monkeypatch.setattr(noise, "eval_G", lambda t, u, mark, spec: spec.shapes[mark] + 0.0 * u)
    assert failed_checks(verify.check_noise) == {"coefficient-lipschitz-exact"}
