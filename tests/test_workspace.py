"""The padded transform pair on reusable per-thread buffers.

``spectral.to_grid``/``from_grid`` each run through one workspace that
persists from call to call (``scratch("spectrum")`` and
``scratch("rows")``): on grids above ``_DENSE_MAX_N`` modes the one-axis
passes of ``irfft2``/``rfft2`` in place, the padded input's gap rows
re-zeroed on every call, up to it two dense DFT products each way.
Above the cutoff the operators that use them are pinned bit for bit to
the allocate-per-call pair of ``tests/oracle.py``; at or below it, bit for
bit to the same call on a new thread's empty buffers and to that pair
within ``DENSE_TOL`` of the largest value.  No result may alias a
workspace; threads and batch shapes may not see each other's buffers; a
warm step allocates less than one padded field stack; and a batch smaller
than a warm one allocates no padded input of its own.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from nlcsim import operators, spectral, verify
from nlcsim.dynamics import SolverConfig, SpectralState, _run
from nlcsim.operators import (
    DEFAULT_NONLINEARITY,
    explicit_rhs,
    explicit_rhs_transpose,
    potential_energy_hat,
)
from nlcsim.spectral import TorusGrid, from_grid, to_grid
from nlcsim.verify import _on_new_thread

from oracle import (
    plain_from_grid,
    plain_to_grid,
    random_divergence_free_field,
    random_vector_field,
    state_of,
)


# dense DFT products against pocketfft, relative to the largest value
DENSE_TOL = 1e-13


def assert_equals_the_plain_pair(got, want, n):
    """Bit for bit above the dense cutoff, within DENSE_TOL of max |want| at or below it."""
    if n > spectral._DENSE_MAX_N:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= DENSE_TOL * np.max(np.abs(want))


def random_arrays(grid, rng, paths=None):
    """(u_hat, theta_hat, mu_u, mu_theta): one path, or a (paths, ...) batch of each."""
    kmax = grid.n // 2 - 1

    def one():
        u = random_divergence_free_field(grid, rng, kmax=kmax, amplitude=0.4, decay=0.2)
        th = random_vector_field(grid, rng, kmax=kmax, amplitude=0.6, decay=0.2)
        mu = random_divergence_free_field(grid, rng, kmax=kmax, amplitude=1.0)
        mt = random_vector_field(grid, rng, kmax=kmax, amplitude=1.0)
        state, adjoint = state_of(u, th), state_of(mu, mt)
        return state.u_hat, state.theta_hat, adjoint.u_hat, adjoint.theta_hat

    if paths is None:
        return one()
    return tuple(np.stack(a) for a in zip(*(one() for _ in range(paths))))


def operator_outputs(grid, arrays, chi, with_f):
    """Every array the three workspace users return, for one set of inputs."""
    u, th, mu, mt = arrays
    nu, ntheta, f = explicit_rhs(u, th, grid, *chi, with_f=with_f)
    a_u, a_theta, dchi = explicit_rhs_transpose(u, th, mu, mt, grid, *chi, with_chi=True)
    out = [nu, ntheta, a_u, a_theta, *dchi, potential_energy_hat(th, grid, DEFAULT_NONLINEARITY)]
    return out + ([f] if with_f else [])


@pytest.mark.parametrize("with_f", (False, True))
@pytest.mark.parametrize("paths", (None, 3))
@pytest.mark.parametrize("n", (8, 16, 64))
def test_operators_equal_the_plain_pair(monkeypatch, rng, n, paths, with_f):
    grid = TorusGrid(n)
    arrays = random_arrays(grid, rng, paths)
    chis = [(1.0, 1.0), (0.8, 0.6)]
    if paths is not None:
        chis.append((np.array([1.0, 0.7, 0.4]), np.array([0.9, 1.0, 0.5])))
    got = [operator_outputs(grid, arrays, chi, with_f) for chi in chis]
    fresh = [_on_new_thread(operator_outputs, grid, arrays, chi, with_f) for chi in chis]
    monkeypatch.setattr(operators, "to_grid", plain_to_grid)
    monkeypatch.setattr(operators, "from_grid", plain_from_grid)
    want = [operator_outputs(grid, arrays, chi, with_f) for chi in chis]
    for g_row, f_row, w_row in zip(got, fresh, want):
        assert len(g_row) == len(f_row) == len(w_row)
        for g, f, w in zip(g_row, f_row, w_row):
            assert np.array_equal(g, f)
            assert_equals_the_plain_pair(g, w, n)


@pytest.mark.parametrize("paths", (None, 3))
@pytest.mark.parametrize("n", (8, 16, 64, 128))
def test_transform_pair_equals_the_plain_pair(rng, n, paths):
    grid = TorusGrid(n)
    a = random_arrays(grid, rng, paths)[1]
    for m in (n, grid.padded_size(), 2 * n):
        values = to_grid(a, m)
        back = from_grid(values, n)
        assert np.array_equal(values, _on_new_thread(to_grid, a, m))
        assert np.array_equal(back, _on_new_thread(from_grid, values, n))
        assert_equals_the_plain_pair(values, plain_to_grid(a, m), n)
        assert_equals_the_plain_pair(back, plain_from_grid(values, n), n)


@pytest.mark.parametrize("n", (16, 64))
def test_each_direction_owns_one_workspace(rng, n):
    # the dense products below the cutoff, the FFT passes above it
    grid = TorusGrid(n)
    m = grid.padded_size()
    a = random_arrays(grid, rng, 3)[1]

    def roles_after(fn, *args):
        fn(*args)
        return sorted(spectral._workspace.buffers)

    assert _on_new_thread(roles_after, to_grid, a, m) == ["spectrum"]
    assert _on_new_thread(roles_after, from_grid, plain_to_grid(a, m), n) == ["rows"]


def test_results_do_not_alias_the_workspace(rng):
    grid = TorusGrid(16)
    m = grid.padded_size()
    first, second = random_arrays(grid, rng), random_arrays(grid, rng)
    outputs = [operator_outputs(grid, first, (0.8, 0.6), True)]
    outputs.append([to_grid(first[1], m), from_grid(to_grid(first[1], m), grid.n)])
    kept = [[np.copy(a) for a in row] for row in outputs]
    operator_outputs(grid, second, (0.8, 0.6), True)
    from_grid(to_grid(second[1], m), grid.n)
    for row, copies in zip(outputs, kept):
        for a, c in zip(row, copies):
            assert np.array_equal(a, c)


def test_threads_keep_their_own_buffers(rng):
    # two threads alternate batch shapes at once; each result equals the serial one
    grid = TorusGrid(32)
    cases = [random_arrays(grid, rng), random_arrays(grid, rng, 3)]
    serial = [explicit_rhs(c[0], c[1], grid, with_f=True) for c in cases]
    mismatches = []

    def work(order):
        for _ in range(20):
            for i in order:
                got = explicit_rhs(cases[i][0], cases[i][1], grid, with_f=True)
                mismatches.extend(i for a, b in zip(got, serial[i]) if not np.array_equal(a, b))

    workers = [threading.Thread(target=work, args=(order,)) for order in ((0, 1), (1, 0))]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert mismatches == []


def test_verify_lists_and_passes_the_workspace_check():
    results = {r.name: r for r in verify.check_spectral(1)}
    assert results["workspace-reuse"].passed


def test_workspace_check_fails_when_the_padding_is_not_zero(monkeypatch):
    # a padded input that only gets its band written keeps the last call's entries in the gap rows
    def band_only(a, m, out):
        h = a.shape[-2] // 2
        out[..., :h, :h] = a[..., :h, :h]
        out[..., m - h + 1 :, :h] = a[..., h + 1 :, :h]
        return out

    monkeypatch.setattr(spectral, "pad_half", band_only)
    results = {r.name: r for r in verify.check_spectral(1)}
    assert not results["workspace-reuse"].passed


def test_smaller_batch_reuses_the_padded_input(rng):
    # after an (8, 8) batch an (8, 3) one fits in the same workspace: no zero pad of its own shape
    grid = TorusGrid(64)
    m = grid.padded_size()
    a = rng.standard_normal((8, 8, 64, 33)) + 1j * rng.standard_normal((8, 8, 64, 33))
    small = np.ascontiguousarray(a[:, :3])
    out = np.empty((8, 3, m, m))

    def warm_then_small():
        to_grid(a, m)
        tracemalloc.start()
        try:
            to_grid(small, m, out=out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # on a new thread, so no earlier call has left buffers of the small shape behind;
    # an (8, 3) padded input of 96 x 32 complex entries takes 1.18 MB
    assert _on_new_thread(warm_then_small) < 64e3
    assert np.array_equal(out, plain_to_grid(small, m))


@pytest.mark.parametrize("diagnostics", (False, True))
def test_warm_step_allocates_less_than_a_padded_stack(rng, diagnostics):
    grid = TorusGrid(64)
    m = grid.padded_size()
    stack_bytes = 8 * m * m * 8  # the 8 fields of the explicit step on the padded grid
    cfg = SolverConfig(grid=grid, dt=1e-3, t_final=6e-3, energy_diagnostics=diagnostics)
    init = SpectralState(grid, *random_arrays(grid, rng)[:2])
    _run(init, cfg, keep_snapshots=False)  # warm the buffers
    peaks, base = [], []

    def between_snapshots(j, paths, u_hat, theta_hat):
        # from snapshot j - 1 to j: one state update and the next explicit step; the first
        # interval also holds the loop's first temporaries and the last the final row
        if 2 <= j < cfg.n_steps:
            peaks.append(tracemalloc.get_traced_memory()[1] - base[-1])
        tracemalloc.reset_peak()
        base.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        _run(init, cfg, keep_snapshots=False, on_snapshot=between_snapshots)
    finally:
        tracemalloc.stop()
    assert len(peaks) == cfg.n_steps - 2
    assert max(peaks) < stack_bytes
