import numpy as np
import pytest
from scipy.linalg import expm

from conftest import random_real_field
from oracles import (apply_eLt, eval_eLt, eval_eLt_direct, eval_eLt_series,
                     propagator_cs_by_branches)
from ptails.semigroup import (intertwining_defect, kernel_bound_check,
                              propagator_cs, propagator_entries,
                              weighted_defect_entries)
from ptails.spectral import Grid, StateVector, samples_of


def generator(k: float) -> np.ndarray:
    return np.array([[0.0, 1j * k], [1j * k, -2.0 * k * k]])


def test_identity_at_t0():
    for k in (0.0, 0.3, 1.0, 5.0):
        assert np.abs(eval_eLt(k, 0.0) - np.eye(2)).max() < 1e-15


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        propagator_cs(np.array([0.5]), -1.0)


def test_removable_singularity_at_k1():
    # limit of the symbol as the dispersion root vanishes
    for t in (0.5, 2.3, 10.0):
        lim = np.exp(-t) * np.array([[1 + t, 1j * t], [1j * t, 1 - t]])
        assert np.abs(eval_eLt(1.0, t) - lim).max() < 1e-12
        # at k = -1 only the off-diagonal phase flips
        lim_m = np.exp(-t) * np.array([[1 + t, -1j * t], [-1j * t, 1 - t]])
        assert np.abs(eval_eLt(-1.0, t) - lim_m).max() < 1e-12


@pytest.mark.parametrize("k", [0.0, 0.5, 0.999995, 1.000005, 2.0, 10.0, -0.5, -3.0])
@pytest.mark.parametrize("t", [0.3, 2.0, 10.0])
def test_matrix_exponential_oracle(k, t):
    # scaled-and-squared matrix exponential as the independent route
    expected = expm(generator(k) * t)
    assert np.abs(eval_eLt(k, t) - expected).max() < 1e-9


@pytest.mark.parametrize("k", [0.0, 0.5, 1.0 - 3e-5, 1.0 + 3e-5, 2.0, 10.0])
def test_propagator_entries_are_the_matrix_entries(k):
    for t in (0.0, 0.3, 5.0):
        P, Q, R = propagator_entries(np.array([k]), t)
        assert P.dtype == Q.dtype == R.dtype == complex
        E = eval_eLt(k, t)
        np.testing.assert_array_equal([P[0], Q[0], Q[0], R[0]],
                                      [E[0, 0], E[0, 1], E[1, 0], E[1, 1]])


def test_series_matches_oracle_in_branch_window():
    for k in (1.0 - 3e-5, 1.0 + 3e-5):
        for t in (0.5, 5.0, 50.0):
            expected = expm(generator(k) * t)
            assert np.abs(eval_eLt(k, t) - expected).max() < 1e-11


def test_semigroup_property(rng):
    worst = 0.0
    for _ in range(300):
        k = rng.uniform(-8, 8)
        t1, t2 = rng.uniform(0, 10, 2)
        err = np.abs(eval_eLt(k, t1 + t2) - eval_eLt(k, t1) @ eval_eLt(k, t2)).max()
        worst = max(worst, err)
    assert worst < 1e-9


# the flagship grid; the CLI's k grid, which holds k = +-1 exactly; a dense
# grid across the branch window |1 - k^2| < 1e-4; random k
_CS_GRIDS = {
    "flagship": Grid(2 ** 15, 2500.0).k,
    "cli": np.linspace(-8.0, 8.0, 801),
    "window": np.concatenate([np.linspace(1.0 - 1e-4, 1.0 + 1e-4, 2001),
                              np.linspace(-1.0 - 1e-4, -1.0 + 1e-4, 2001)]),
    "random": np.random.default_rng(5).uniform(-40.0, 40.0, 5000),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid", _CS_GRIDS)
def test_propagator_cs_equals_the_branch_routes_bytewise(grid):
    # one pass over the three branch masks gives the bits of the series
    # inside the window and the direct form outside it, each on its own
    # copy of k; no 0/0 of the direct form at k = +-1 is ever evaluated
    k = _CS_GRIDS[grid]
    for t in (0.0, 0.01, 0.3, 1.0, 2.5, 10.0, 50.0, 250.0, 1000.0):
        C, S = propagator_cs(k, t)
        C_ref, S_ref = propagator_cs_by_branches(k, t)
        assert C.tobytes() == C_ref.tobytes() and S.tobytes() == S_ref.tobytes()
        for kk in (0.0, 0.5, 1.0, -1.0, 1.0 + 3e-5, 3.0):
            c, s = propagator_cs(kk, t)
            c_ref, s_ref = propagator_cs_by_branches(np.array([kk]), t)
            assert np.ndim(c) == np.ndim(s) == 0
            assert c.tobytes() == c_ref[0].tobytes() and s.tobytes() == s_ref[0].tobytes()


def test_branch_continuity():
    # the two computational branches agree where both are accurate
    for t in (0.5, 2.0, 10.0, 100.0):
        k = 1.0 - 1e-5
        assert np.abs(eval_eLt_direct(k, t) - eval_eLt_series(k, t)).max() < 1e-8
        # series at k = 1 equals the closed-form limit
        lim = np.exp(-t) * np.array([[1 + t, 1j * t], [1j * t, 1 - t]])
        assert np.abs(eval_eLt_series(1.0, t) - lim).max() < 1e-10


def test_determinant_identity(rng):
    # trace of the generator is -2k^2, so det e^{Lt} = e^{-2 k^2 t}
    for _ in range(50):
        k = rng.uniform(-4, 4)
        t = rng.uniform(0, 5)
        m = eval_eLt(k, t)
        assert abs(np.linalg.det(m) - np.exp(-2 * k * k * t)) < 1e-9


def test_no_overflow_large_kt():
    m = eval_eLt(20.0, 50.0)
    assert np.isfinite(m).all()
    C, S = propagator_cs(np.linspace(-60, 60, 1001), 100.0)
    assert np.isfinite(C).all() and np.isfinite(S).all()


def test_apply_preserves_reality(grid_small, rng):
    a = random_real_field(grid_small, rng)
    b = random_real_field(grid_small, rng)
    state = StateVector(a, b, "physical")
    out = apply_eLt(state, 1.7)
    assert np.abs(samples_of(out.first.coeffs).imag).max() < 1e-12
    assert np.abs(samples_of(out.second.coeffs).imag).max() < 1e-12


def test_kernel_bounds_and_refinement():
    k1 = np.linspace(-10, 10, 241)
    t1 = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 40)])
    rep1 = kernel_bound_check(k1, t1)
    assert rep1.C_matrix >= 1.0          # t = 0 diagonal entries force C >= 1
    assert not rep1.violation
    k2 = np.linspace(-10, 10, 481)
    t2 = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 80)])
    rep2 = kernel_bound_check(k2, t2)
    assert rep2.C_matrix == pytest.approx(rep1.C_matrix, rel=0.10)
    assert rep2.C_derivative == pytest.approx(rep1.C_derivative, rel=0.10)


def test_kernel_bound_offdiagonal_pointwise():
    # off-diagonal entry at k = 10, t = 1 respects the reported envelope
    rep = kernel_bound_check(np.linspace(-10, 10, 241),
                             np.concatenate([[0.0], np.geomspace(0.01, 10.0, 30)]))
    entry = abs(eval_eLt(10.0, 1.0)[0, 1])
    envelope = rep.C_matrix * np.exp(-1.0 / 4.0) / np.sqrt(101.0)
    assert entry <= envelope


def test_kernel_bound_empty_grid():
    with pytest.raises(ValueError):
        kernel_bound_check(np.array([]), np.array([1.0]))


def test_defect_zero_at_t0_inside():
    ent = weighted_defect_entries(np.linspace(-1, 1, 101), 0.0)
    assert np.abs(ent).max() < 1e-14


def test_defect_outside_is_pure_decoupled_term():
    k = np.array([1.5, 2.0, 4.0])
    t = 3.0
    ent = weighted_defect_entries(k, t)
    expected = np.sqrt(1 + t) * np.exp(-k * k * t / 2.0)
    for i in range(2):
        for j in range(2):
            assert np.abs(ent[i, j] - expected).max() < 1e-12


def test_defect_sup_finite_and_grid_stable():
    t1 = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 50)])
    rep1 = intertwining_defect(np.linspace(-4, 4, 401), t1)
    t2 = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 100)])
    rep2 = intertwining_defect(np.linspace(-4, 4, 801), t2)
    assert np.isfinite(rep1.sup)
    assert rep2.sup == pytest.approx(rep1.sup, rel=0.10)
