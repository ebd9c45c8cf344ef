"""The fused step and its transpose on plane-major padded stacks, bit for bit.

``operators.explicit_rhs`` and ``explicit_rhs_transpose`` keep their
padded fields plane-major, (fields, *paths, m, m), and form every product
as explicit multiply-adds in the order ``np.sum`` over the field axis adds.
``tests/oracle.py`` keeps the path-major form of both, (*paths, fields,
m, m); every output must equal it exactly, on the dense DFT products
(N <= 62) and on the FFT passes, for any leading shape.  A warm transpose
works in its scratch buffers: its allocations stay below one 8-field
padded stack.
"""

import tracemalloc

import numpy as np
import pytest

from nlcsim.operators import DEFAULT_NONLINEARITY, explicit_rhs, explicit_rhs_transpose
from nlcsim.spectral import TorusGrid

from oracle import (
    path_major_rhs,
    path_major_rhs_transpose,
    random_divergence_free_field,
    random_vector_field,
    state_of,
)

LEADS = ((), (1,), (3,), (8,), (2, 3))
# N = 64 already takes the FFT passes, so N = 128 runs at the small leading shapes only
CASES = [(n, lead) for n in (8, 16, 64, 128) for lead in LEADS if n < 128 or lead in ((), (1,), (3,))]
NONLINEARITIES = (DEFAULT_NONLINEARITY, None)


def random_batch(grid, rng, lead):
    """(u_hat, theta_hat, mu_u, mu_theta), each of shape lead + (2, N, N//2+1)."""
    kmax = grid.n // 2 - 1

    def one():
        u = random_divergence_free_field(grid, rng, kmax=kmax, amplitude=0.4, decay=0.2)
        th = random_vector_field(grid, rng, kmax=kmax, amplitude=0.6, decay=0.2)
        mu = random_divergence_free_field(grid, rng, kmax=kmax, amplitude=1.0)
        mt = random_vector_field(grid, rng, kmax=kmax, amplitude=1.0)
        state, adjoint = state_of(u, th), state_of(mu, mt)
        return state.u_hat, state.theta_hat, adjoint.u_hat, adjoint.theta_hat

    paths = [one() for _ in range(int(np.prod(lead, dtype=int)))]
    return tuple(np.stack(a).reshape(lead + a[0].shape) for a in zip(*paths))


def chi_cases(rng, lead):
    """Unit, scalar, zero and (with a leading shape) one value per path."""
    cases = [(1.0, 1.0), (0.8, 0.6), (0.0, 0.0)]
    if lead:
        cases.append((rng.uniform(0.3, 1.0, lead), rng.uniform(0.3, 1.0, lead)))
    return cases


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("n, lead", CASES, ids=str)
def test_step_equals_the_path_major_step(n, lead, rng):
    grid = TorusGrid(n)
    u, th = random_batch(grid, rng, lead)[:2]
    for chi in chi_cases(rng, lead):
        for nl in NONLINEARITIES:
            for with_f in (False, True):
                got = explicit_rhs(u, th, grid, *chi, nl, with_f=with_f)
                assert_same(got, path_major_rhs(u, th, grid, *chi, nl, with_f=with_f))
                assert got[0].shape == got[1].shape == lead + (2, n, n // 2 + 1)


@pytest.mark.parametrize("n, lead", CASES, ids=str)
def test_transpose_equals_the_path_major_transpose(n, lead, rng):
    grid = TorusGrid(n)
    arrays = random_batch(grid, rng, lead)
    for chi in chi_cases(rng, lead):
        for nl in NONLINEARITIES:
            got = explicit_rhs_transpose(*arrays, grid, *chi, nl)
            assert_same(got, path_major_rhs_transpose(*arrays, grid, *chi, nl))
            a_u, a_theta, dchi = explicit_rhs_transpose(*arrays, grid, *chi, nl, with_chi=True)
            want = path_major_rhs_transpose(*arrays, grid, *chi, nl, with_chi=True)
            assert_same((a_u, a_theta, *dchi), (*want[:2], *want[2]))
            assert dchi[0].shape == dchi[1].shape == lead


@pytest.mark.parametrize("chi", ((1.0, 1.0), (0.8, 0.6)))
@pytest.mark.parametrize("with_chi", (False, True))
def test_warm_transpose_allocates_less_than_a_padded_stack(rng, chi, with_chi):
    grid = TorusGrid(64)
    arrays = random_batch(grid, rng, ())
    explicit_rhs_transpose(*arrays, grid, *chi, with_chi=with_chi)  # warm the buffers
    tracemalloc.start()
    try:
        explicit_rhs_transpose(*arrays, grid, *chi, with_chi=with_chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 fields of the explicit step on the 96 x 96 padded grid take 0.59 MB
    assert peak <= 0.6e6
