import dataclasses
import gc
import re
import tracemalloc

import numpy as np
import pytest

from conftest import random_real_field, run_collecting
from oracles import (apply_eLt, bound_kernel_B0_quad, bound_kernel_B_quad,
                     fhat_on_largest_grid, full_remainder_norms,
                     linear_reference_three_tables, transient_sweep_full_grid)
from ptails import profiles, special, verify
from ptails.nonlinearity import default_nonlinearity, zero_nonlinearity
from ptails.solver import (SimConfig, frame_phases, gaussian_initial_state, run,
                           snapshot_times)
from ptails.spectral import Grid, SpectralField, StateVector, mass
from ptails.verify import (B0_EXPONENTS, USED_KERNEL_PARAMS, BoundKernelParams,
                           DecayFitReport, RemainderAccumulator, bound_check,
                           bound_kernel_B, bound_kernel_B0,
                           build_model_from_trajectory, fit_d1, fit_decay,
                           remainder_pipeline, tail_precedence_check)


# ------------------------------------------------------------------ fits

def test_fit_decay_exact_power():
    t = np.geomspace(1, 200, 20)
    v = 3.0 * (1 + t) ** -0.5
    rep = fit_decay(t, v, "q", -0.5, 0.05, two_sided=True)
    assert rep.slope == pytest.approx(-0.5, abs=1e-12)
    assert rep.passed and rep.residual < 1e-12


def test_fit_decay_window_guard():
    t = np.linspace(10, 40, 10)
    with pytest.raises(ValueError):
        fit_decay(t, np.ones_like(t), "q", -1.0, 0.1, two_sided=True)


def test_fit_decay_one_sided():
    t = np.geomspace(1, 100, 12)
    v = (1 + t) ** -1.0
    rep = fit_decay(t, v, "q", -0.5, 0.05, two_sided=False)
    assert rep.passed                       # steeper than required
    rep2 = fit_decay(t, v, "q", -0.5, 0.05, two_sided=True)
    assert not rep2.passed                  # but not equal to the target


def test_fit_decay_residual_cap():
    t = np.geomspace(1, 100, 40)
    rng = np.random.default_rng(3)
    v = (1 + t) ** -0.5 * np.exp(rng.normal(0, 1.0, t.size))
    rep = fit_decay(t, v, "noisy", -0.5, 0.5, two_sided=True)
    assert not rep.passed                   # residual above the cap


def test_fit_d1_extrapolation_recovers_intercept():
    t = np.geomspace(50, 1000, 25)
    truth, b = 7.7e-5, 8.0e-5
    series = truth + b * (1 + t) ** -0.25
    d1, bb = fit_d1(t, series)
    assert d1 == pytest.approx(truth, rel=1e-10)
    assert bb == pytest.approx(b, rel=1e-10)


# ---------------------------------------------------------- bound kernels

def test_B0_empty_range():
    assert bound_kernel_B0(0.0, 0.0) == 0.0


@pytest.mark.parametrize("q", [0.75, 1.25])
def test_B0_envelope(q):
    ts = np.concatenate([[0.0], np.geomspace(0.01, 1000.0, 40)])
    ratio = max(bound_kernel_B0(q, t) * (1 + t) ** q for t in ts)
    assert ratio < 20.0


# the CLI bounds grid, and two decades beyond it
_KERNEL_TIMES = np.concatenate([np.geomspace(1e-2, 1e3, 60), np.geomspace(1e3, 1e5, 9)[1:]])


@pytest.mark.parametrize("q", B0_EXPONENTS)
def test_B0_panels_match_quadpack(q):
    got = np.array([bound_kernel_B0(q, t) for t in _KERNEL_TIMES])
    ref = np.array([bound_kernel_B0_quad(q, t) for t in _KERNEL_TIMES])
    assert np.abs(got / ref - 1.0).max() <= 1e-10


@pytest.mark.parametrize("t", [1e-3, 0.5, 3.0, 15.9, 16.0, 16.1, 100.0, 575.0, 576.0,
                               577.0, 1e3, 1e5])
def test_B0_edges_equal_union1d(t):
    # below t = 16 the step-4 edges are 0 alone; above 576, sqrt(t) > 24
    # and they stop at 20
    ref = np.union1d(np.sqrt(t - verify._graded_edges(t)),
                     np.arange(0.0, min(np.sqrt(t), 24.0), 4.0))
    assert verify._b0_edges(t).tobytes() == ref.tobytes()


@pytest.mark.parametrize("size", [8, 9, 10, 11, 64, 101, 1000, 1001])
def test_tail_median_equals_np_median_bitwise(size):
    rng = np.random.default_rng(size)
    for x in (np.abs(rng.standard_normal(size)),
              np.abs(rng.standard_normal(size)) * 10.0 ** rng.integers(-30, 0, size),
              np.round(rng.uniform(0.0, 3.0, size))):       # ties
        assert np.float64(verify._median(x)).tobytes() == np.float64(np.median(x)).tobytes()
    x = np.abs(rng.standard_normal(size))
    x[size // 3] = np.nan
    assert np.isnan(verify._median(x)) and np.isnan(np.median(x))


@pytest.mark.parametrize("sides", ["+-", "+", "-"])
@pytest.mark.parametrize("t", [0.0, 0.37, 5.0, 250.0])
def test_linear_reference_equals_three_table_form_bytewise(sides, t):
    # the rows built in place through one shared scratch array are the plain
    # expressions' bits, and each row reads only its own side's profile
    # transform: the sides not in ``sides`` get a NaN transform, which must
    # not reach the others' rows through the scratch array
    rng = np.random.default_rng(11)
    grid = Grid(2 ** 12, 400.0)
    initial = StateVector(random_real_field(grid, rng), random_real_field(grid, rng),
                          "physical")
    g0_hat = {side: random_real_field(grid, rng).coeffs if side in sides
              else np.full(grid.n_points, np.nan, dtype=complex) for side in "+-"}
    phases = frame_phases(grid.k, t)
    got = verify._linear_reference_coeffs(initial, t, g0_hat, phases)
    ref = linear_reference_three_tables(initial, t, g0_hat, phases)
    assert got.keys() == ref.keys() == {"+", "-"}
    for side in "+-":
        if side in sides:
            assert got[side].tobytes() == ref[side].tobytes()
        else:
            assert np.isnan(got[side]).all()


@pytest.mark.parametrize("t", [0.0, 0.37, 5.0, 250.0])
def test_linear_reference_equals_the_propagated_matrix(t):
    # row+- = phase+- (first +- second component of e^{Lt} z0) - e^{-k^2 t} g0+-,
    # with e^{Lt} z0 by the 2x2 matrix applied mode by mode
    rng = np.random.default_rng(11)
    grid = Grid(2 ** 12, 400.0)
    initial = StateVector(random_real_field(grid, rng), random_real_field(grid, rng),
                          "physical")
    g0_hat = {side: random_real_field(grid, rng).coeffs for side in "+-"}
    phases = frame_phases(grid.k, t)
    got = verify._linear_reference_coeffs(initial, t, g0_hat, phases)
    z = apply_eLt(initial, t)
    heat_factor = np.exp(-grid.k ** 2 * t)
    want = {"+": phases[0] * (z.first.coeffs + z.second.coeffs) - heat_factor * g0_hat["+"],
            "-": phases[1] * (z.first.coeffs - z.second.coeffs) - heat_factor * g0_hat["-"]}
    assert got.keys() == want.keys()
    for side in "+-":
        assert np.abs(got[side] - want[side]).max() <= 1e-13


@pytest.mark.parametrize("params", USED_KERNEL_PARAMS, ids=lambda p: p.name)
def test_B_panels_match_quadpack(params):
    got = np.array([bound_kernel_B(params, t) for t in _KERNEL_TIMES])
    ref = np.array([bound_kernel_B_quad(params, t) for t in _KERNEL_TIMES])
    assert np.abs(got / ref - 1.0).max() <= 1e-10


def test_B_hypotheses_validated():
    with pytest.raises(ValueError):
        BoundKernelParams(0.5, 0.5, 0.0, 1.0, 0.5, 0.0, 0, "")
    with pytest.raises(ValueError):
        BoundKernelParams(0.5, 0.5, 0.0, 0.5, 0.5, 0.9, 0, "")
    with pytest.raises(ValueError):
        BoundKernelParams(0.5, 0.5, 0.0, 0.5, 0.5, 0.0, 2, "")


def test_B_monotone_in_q():
    base = dict(r1=0.0, p2=0.5, q2=0.75, r2=0.0, r3=0, name="")
    lo = BoundKernelParams(0.5, 0.75, **base)
    hi = BoundKernelParams(0.5, 1.25, **base)
    for t in (3.0, 30.0, 300.0):
        assert bound_kernel_B(hi, t) < bound_kernel_B(lo, t)
    lo_q2 = BoundKernelParams(0.5, 0.75, 0.0, 0.5, 0.75, 0.0, 0, "")
    hi_q2 = BoundKernelParams(0.5, 0.75, 0.0, 0.5, 1.25, 0.0, 0, "")
    for t in (3.0, 30.0):
        assert bound_kernel_B(hi_q2, t) < bound_kernel_B(lo_q2, t)


def test_B_decay_matches_beta_with_log_regressor():
    # the second-derivative tuple: beta = 5/4 with a unit log power
    p = BoundKernelParams(1.5, 0.75, 0.0, 0.5, 1.25, 0.5, 0, "")
    assert p.beta_decay == pytest.approx(1.25)
    assert p.alpha_log == 1
    ts = np.geomspace(5, 1000, 30)
    vals = np.array([bound_kernel_B(p, t) for t in ts])
    A = np.vstack([np.ones_like(ts), np.log(1 + ts),
                   np.log(np.log(2 + ts))]).T
    sol, *_ = np.linalg.lstsq(A, np.log(vals), rcond=None)
    assert sol[1] == pytest.approx(-1.25, abs=0.05)


def test_bound_check_all_used_tuples_finite():
    rows = bound_check(np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 60)]))
    assert len(rows) == len(USED_KERNEL_PARAMS) + 2
    for r in rows:
        assert r.finite, r.name
        assert r.measured_C < 100.0


# ---------------------------------------------------------- the pipeline

def _fit(result, quantity: str) -> DecayFitReport:
    return {r.quantity: r for r in result.reports}[quantity]


def _stream(cfg, nl):
    """The library route: the model from the initial masses, an accumulator
    as the run's consumer; returns the model, the accumulator and the run's
    record."""
    initial = gaussian_initial_state(cfg)
    model = build_model_from_trajectory(initial, nl)
    acc = RemainderAccumulator(model, cfg)
    return model, acc, run(cfg, nl, acc.add, initial)


@pytest.fixture(scope="module")
def medium_run():
    cfg = SimConfig(n_points=2 ** 13, half_length=800.0, t_final=300.0,
                    epsilon0=0.05, b_fraction=0.3, n_snapshots=90)
    return run_collecting(cfg, default_nonlinearity())


@pytest.fixture(scope="module")
def medium_model(medium_run):
    return build_model_from_trajectory(medium_run[1][0], default_nonlinearity())


@pytest.fixture(scope="module")
def medium_fed(medium_run, medium_model):
    # an accumulator fed the run's collected snapshots in order
    traj, snapshots = medium_run
    acc = RemainderAccumulator(medium_model, traj.config)
    for state, t in zip(snapshots, traj.times):
        acc.add(state, t)
    return acc


def test_pipeline_reports_and_d1(medium_run, medium_fed):
    res = remainder_pipeline(medium_run[0], medium_fed)
    names = {r.quantity for r in res.reports}
    assert {"+_N0_raw", "+_N0", "+_N1", "+_N1_D"} <= names
    # raw remainder decays at least at the N = 1 target rate
    assert _fit(res, "+_N0_raw").slope <= -0.625 + 0.05
    # transient-subtracted N1 remainder beats its target
    assert _fit(res, "+_N1").passed
    # fitted d1 within 25 percent of the analytic recursion at this size
    assert res.d1_relative_difference("+") <= 0.25
    assert res.mass_error < 1e-6


def test_pipeline_monotone_improvement(medium_run, medium_fed):
    res = remainder_pipeline(medium_run[0], medium_fed)
    assert _fit(res, "+_N1").slope <= _fit(res, "+_N0").slope + 0.02


def test_pipeline_linear_run_heat_asymptotics():
    # with the source off the raw remainder follows pure heat asymptotics
    cfg = SimConfig(n_points=2 ** 12, half_length=450.0, t_final=150.0,
                    epsilon0=0.05, n_snapshots=60)
    model, acc, traj = _stream(cfg, zero_nonlinearity())
    assert model.coeffs.c_plus == 0.0
    res = remainder_pipeline(traj, acc)
    assert _fit(res, "+_N0_raw").slope <= -0.75 + 0.05
    # no quadratic driving: analytic d-coefficients vanish
    assert model.coeffs.d[0] == (0.0, 0.0)


def _drifted(snap: StateVector) -> StateVector:
    """The snapshot with 3e-6 added to the mass of its first component."""
    bumped = snap.first.coeffs.copy()
    bumped[0] += 3e-6 / (2.0 * snap.grid.half_length)
    return StateVector(SpectralField(snap.grid, bumped), snap.second, "physical")


def _drift_message(snap: StateVector, t: float, model) -> str:
    co = model.coeffs
    alpha = {"+": co.alpha_plus, "-": co.alpha_minus}
    drift = max(abs(mass(verify._char_component(snap, t, side)) - alpha[side])
                for side in "+-")
    assert drift > 1e-6
    return ("mass of the characteristic field drifts from the matched value "
            f"by {drift:.3e} (> 1e-06)")


def test_pipeline_refuses_mass_drift_before_the_expensive_work():
    # a library run with an accumulator as its consumer ends at the first
    # window snapshot whose mass drifts: that snapshot gets no transient row,
    # and the run makes no later snapshot
    cfg = SimConfig(n_points=2 ** 11, half_length=450.0, t_final=150.0,
                    epsilon0=0.05, n_snapshots=40)
    nl = default_nonlinearity()
    initial = gaussian_initial_state(cfg)
    model = build_model_from_trajectory(initial, nl)
    acc = RemainderAccumulator(model, cfg)
    times = snapshot_times(cfg)
    i = len(times) - 3
    seen, expected = [], []

    def drifting(state, t):
        seen.append(t)
        if t == times[i]:
            state = _drifted(state)
            expected.append(_drift_message(state, t, model))
        acc.add(state, t)

    with pytest.raises(ValueError) as exc:
        run(cfg, nl, drifting, initial)
    assert str(exc.value) == expected[0]
    assert seen == times[:i + 1]
    window_before = sum(t >= cfg.t_final / 20.0 for t in times[:i])
    assert [len(acc.scalars[side]["n1"]) for side in "+-"] == [window_before] * 2


def test_streamed_pipeline_equals_stored(medium_run, medium_model, medium_fed):
    # one run feeds an accumulator as it goes and keeps no snapshot; a
    # separate run's snapshots, stored by a list consumer and fed
    # afterwards, give the same bits: the run hands out each snapshot as
    # recorded and never changes it afterwards
    stored_traj = medium_run[0]
    cfg = stored_traj.config
    acc = RemainderAccumulator(medium_model, cfg)
    traj = run(cfg, default_nonlinearity(), acc.add)
    assert traj.times == stored_traj.times == snapshot_times(cfg)
    assert traj.mass_a == stored_traj.mass_a and traj.mass_b == stored_traj.mass_b
    stored = remainder_pipeline(stored_traj, medium_fed)
    streamed = remainder_pipeline(traj, acc)
    assert streamed.d1_fit == stored.d1_fit
    assert streamed.mass_error == stored.mass_error
    assert streamed.series.keys() == stored.series.keys()
    for quantity, (t, values) in stored.series.items():
        t_s, values_s = streamed.series[quantity]
        assert np.array_equal(t_s, t)
        assert np.array_equal(values_s, values), quantity
    assert streamed.reports == stored.reports
    assert tail_precedence_check(acc) == tail_precedence_check(medium_fed)


def _tail_report_from_snapshot(snapshot: StateVector, t: float):
    """The tail check made from a stored snapshot, as it was before the
    accumulator kept only the samples it reads: the + component's samples
    over the whole grid, then the two z-windows picked from them."""
    u = verify._char_component(snapshot, t, "+")
    samples = u.samples()
    x = u.grid.x
    root = np.sqrt(1.0 + t)
    lo, hi = verify.TAIL_Z_WINDOW[0] * root, verify.TAIL_Z_WINDOW[1] * root
    level = float(np.abs(samples).max())

    def side_slope(sign: int):
        msk = (sign * x >= lo) & (sign * x <= hi)
        vals = np.abs(samples[msk])
        if vals.size < 8 or np.median(vals) < verify.TAIL_FLOOR * max(level, 1.0):
            return None
        return special.tail_exponent_fit(sign * x[msk], samples[msk], (lo, hi))[0]

    ahead, behind = side_slope(+1), side_slope(-1)
    return verify.TailPrecedenceReport(
        ahead_slope=ahead, behind_slope=behind,
        ahead_is_algebraic=(ahead is not None and abs(ahead - verify.TAIL_EXPONENT)
                            <= verify.TAIL_EXPONENT_TOLERANCE),
        behind_is_gaussian=behind is None or behind <= -4.0,
        conclusive=ahead is not None and -4.0 < ahead < 0.0)


@pytest.mark.parametrize("in_window", [True], ids=["window"])
def test_tail_report_from_kept_samples_equals_stored_snapshot(
        medium_run, medium_fed, in_window):
    # the samples the accumulator keeps of the snapshot nearest t_final / 2,
    # inside the fit window, come from a transform of the + component of
    # its own: the report is the one the whole stored snapshot gives, bit
    # for bit
    traj, snapshots = medium_run
    i = int(np.argmin(np.abs(np.asarray(traj.times) - traj.config.t_final / 2.0)))
    assert (traj.times[i] >= traj.config.t_final / 20.0) == in_window
    got = tail_precedence_check(medium_fed)
    assert got == _tail_report_from_snapshot(snapshots[i], traj.times[i])
    assert got.ahead_slope is not None


def test_streamed_accumulator_holds_no_state_but_the_initial():
    # after a streamed run, which keeps the tail samples, the only state
    # left alive is the initial one that the linear reference reads
    cfg = SimConfig(n_points=2 ** 11, half_length=450.0, t_final=150.0,
                    epsilon0=0.05, n_snapshots=40)
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, StateVector)}
    _, acc, traj = _stream(cfg, default_nonlinearity())
    gc.collect()
    alive = [o for o in gc.get_objects()
             if isinstance(o, StateVector) and id(o) not in before]
    assert len(alive) == 1 and alive[0] is acc._initial
    assert acc.tail is not None and acc.n_fed == len(traj.times)


def test_streamed_verify_working_set_is_bounded():
    # a streamed run holds the stepper's tables, the current and initial
    # states and the accumulator's sweeps, with a step's or a snapshot's
    # work arrays on top: 24.5 spectra above the level before the run.
    # Holding the tail snapshot, the unsymmetrized initial state and the
    # sweeps' full-grid index arrays, with an out-of-place symmetrization,
    # took it to 34.5
    cfg = SimConfig(n_points=2 ** 13, half_length=300.0, t_final=50.0,
                    epsilon0=0.05, b_fraction=0.3, n_snapshots=60)
    nl = default_nonlinearity()
    model = build_model_from_trajectory(gaussian_initial_state(cfg), nl)
    tracemalloc.start()
    try:
        acc = RemainderAccumulator(model, cfg)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        traj = run(cfg, nl, acc.add)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not traj.abort_reason and acc.tail is not None
    spectrum = 16 * cfg.n_points
    assert peak < 28 * spectrum, peak / spectrum


def test_n0_from_inner_products_matches_whole_fields(medium_run, medium_model, medium_fed):
    traj, snapshots = medium_run
    res = remainder_pipeline(traj, medium_fed)
    window = (traj.config.t_final / 20.0, traj.config.t_final)
    for side in "+-":
        times, n0 = full_remainder_norms(snapshots, traj.times, medium_model, side, window)
        t, values = res.series[f"{side}_N0"]
        assert np.array_equal(t, times)
        np.testing.assert_allclose(values, n0, rtol=1e-12, atol=0)


def test_streamed_memory_does_not_grow_with_snapshots():
    # the consumer route keeps scalars per snapshot: ten times the snapshots
    # must not cost the ~23 MB that storing them does
    nl = default_nonlinearity()
    base = SimConfig(n_points=2 ** 12, half_length=450.0, t_final=100.0,
                     epsilon0=0.05)
    initial = gaussian_initial_state(base)
    model = build_model_from_trajectory(initial, nl)
    peaks = {}
    for n_snapshots in (20, 200):
        cfg = dataclasses.replace(base, n_snapshots=n_snapshots)
        tracemalloc.start()
        try:
            acc = RemainderAccumulator(model, cfg)
            traj = run(cfg, nl, acc.add, initial)
            remainder_pipeline(traj, acc)
            peaks[n_snapshots] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[200] - peaks[20]) < 2e6, peaks


@pytest.fixture(scope="module")
def flagship_model():
    # the flagship grid with the physical parameters of benchmark seed 1001
    cfg = SimConfig(n_points=2 ** 15, half_length=2500.0, t_final=50.0,
                    epsilon0=0.055933, b_fraction=0.211725)
    return build_model_from_trajectory(gaussian_initial_state(cfg),
                                       default_nonlinearity())


@pytest.mark.parametrize("side", ["+", "-"])
def test_transient_source_matches_largest_grid(flagship_model, side):
    # the squared leading profile of the other side, on the points its
    # spectrum needs, against the same transform on 2^17 points, over the
    # k <= 18 that the t_final = 1000 sweep reads
    _, _, fhat = verify._transient_source_fhat(flagship_model, side)
    base = flagship_model.g0_minus if side == "+" else flagship_model.g0_plus
    g0 = profiles.g0_function(base.alpha, base.gamma)
    shape = lambda x: g0(x) ** 2
    k = np.linspace(0.0, 18.0, 3601)
    ref = fhat_on_largest_grid(shape)(k)
    assert np.abs(fhat(k) - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("side", ["+", "-"])
@pytest.mark.parametrize("n_points,half_length", [(2 ** 13, 600.0), (16, 4.0), (2, 1.0)],
                         ids=["some-modes", "all-modes", "two-points"])
def test_transient_sweep_matches_the_full_grid_mirror(flagship_model, side, n_points,
                                                      half_length):
    # the sweep's rows, mirrored to k < 0 by slices, are byte-equal to the
    # rows built with a full-grid mode mask and mirror index; on 16 points
    # every mode k >= 0 lies below the first cut, and on 2 the only one is
    # k = 0
    grid = Grid(n_points, half_length)
    times = np.geomspace(0.5, 50.0, 12)
    source = verify._transient_source_fhat(flagship_model, side)
    got = list(verify._transient_sweep(*source, grid, times))
    want = list(transient_sweep_full_grid(*source, grid, times))
    assert len(got) == len(want) == times.size
    for row, ref in zip(got, want):
        assert row.tobytes() == ref.tobytes()
    assert (np.abs(got[0]).max() > 0.0) == (n_points > 2)


def test_transient_source_memory_is_small(flagship_model):
    verify._transient_source_fhat(flagship_model, "+")
    tracemalloc.start()
    try:
        verify._transient_source_fhat(flagship_model, "+")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2^13 points; a fixed 2^17-point build peaked at about 29 MB
    assert peak < 3e6, peak


def test_streamed_mass_check_refuses_before_transforming(
        medium_run, medium_model, monkeypatch):
    # the consumer checks each window snapshot's mass from its zeroth
    # coefficients and refuses a drifted one before any transform of it
    traj, snapshots = medium_run
    acc = RemainderAccumulator(medium_model, traj.config)
    i = len(traj.times) - 3
    for snap, t in zip(snapshots[:i], traj.times[:i]):
        acc.add(snap, t)
    drifted, t = _drifted(snapshots[i]), traj.times[i]
    expected = _drift_message(drifted, t, medium_model)

    def unreachable(*args, **kwargs):
        raise AssertionError("transformed a snapshot whose mass drifted")

    monkeypatch.setattr(verify, "to_characteristic_frame", unreachable)
    monkeypatch.setattr(verify, "samples_into", unreachable)
    monkeypatch.setattr(verify, "coeffs_into", unreachable)
    with pytest.raises(ValueError) as exc:
        acc.add(drifted, t)
    assert str(exc.value) == expected


def test_d1_fit_window_falls_back_on_short_series():
    t = np.geomspace(1.0, 1000.0, 8)          # 3 samples in the last decade
    proj = 0.3 + 0.1 * (1.0 + t) ** -0.25
    sel, fell_back = verify._d1_fit_window(t)
    assert fell_back and sel.all()
    assert fit_d1(t, proj)[0] == pytest.approx(0.3, rel=1e-9)
    long_t = np.geomspace(1.0, 1000.0, 40)
    assert not verify._d1_fit_window(long_t)[1]


def test_pipeline_reports_d1_fit_window_fallback():
    # 10 geometric snapshots over 200 steps to t = 150 leave 6 in the fit
    # window t >= 7.5 and 4 of those in the d1 fit's last decade
    cfg = SimConfig(n_points=2 ** 9, half_length=450.0, t_final=150.0, dt=0.75,
                    epsilon0=0.05, n_snapshots=10)
    _, acc, traj = _stream(cfg, default_nonlinearity())
    assert not traj.abort_reason
    res = remainder_pipeline(traj, acc)
    assert res.d1_fit_window_fallback == {"+": True, "-": True}


def test_tail_precedence_nonlinear(medium_fed):
    rep = tail_precedence_check(medium_fed)
    assert rep.conclusive
    assert rep.ahead_is_algebraic
    assert rep.behind_is_gaussian


def test_pipeline_zero_data_trivially_passes():
    cfg = SimConfig(n_points=2 ** 10, half_length=450.0, t_final=150.0,
                    epsilon0=0.0, n_snapshots=40)
    model, acc, traj = _stream(cfg, default_nonlinearity())
    res = remainder_pipeline(traj, acc)
    assert all(r.passed for r in res.reports)
    assert res.d1_fit["+"] == 0.0
    assert model.coeffs.d[0] == (0.0, 0.0)
    assert res.mass_error == 0.0


def test_d1_fit_stable_under_discretization_refinement():
    nl = default_nonlinearity()
    fits = {}
    for tag, n_pts, dt in (("coarse", 2 ** 13, None), ("fine", 2 ** 14, 0.04)):
        cfg = SimConfig(n_points=n_pts, half_length=800.0, t_final=200.0,
                        dt=dt, epsilon0=0.05, b_fraction=0.3, n_snapshots=80)
        _, acc, traj = _stream(cfg, nl)
        fits[tag] = remainder_pipeline(traj, acc).d1_fit["+"]
    assert fits["fine"] == pytest.approx(fits["coarse"], rel=0.02)


def test_tail_precedence_linear_inconclusive():
    cfg = SimConfig(n_points=2 ** 12, half_length=450.0, t_final=150.0,
                    epsilon0=0.05, n_snapshots=40)
    _, acc, _ = _stream(cfg, zero_nonlinearity())
    rep = tail_precedence_check(acc)     # at the snapshot nearest t = 75
    assert not rep.conclusive        # both sides Gaussian: nothing to fit


def test_tail_precedence_refuses_an_accumulator_not_fed_its_snapshot():
    # the check reads the snapshot nearest t_final / 2, which a fresh
    # accumulator, or one fed only the snapshots before it, has not kept
    cfg = SimConfig(n_points=2 ** 9, half_length=80.0, t_final=10.0, n_snapshots=20)
    initial = gaussian_initial_state(cfg)
    acc = RemainderAccumulator(build_model_from_trajectory(initial, default_nonlinearity()),
                               cfg)
    times = snapshot_times(cfg)
    t_tail = min(times, key=lambda t: abs(t - cfg.t_final / 2.0))
    message = re.escape(f"not fed the snapshot at t = {t_tail},")
    with pytest.raises(ValueError, match=message):
        tail_precedence_check(acc)
    acc.add(initial.symmetrized(), 0.0)
    with pytest.raises(ValueError, match=message):
        tail_precedence_check(acc)


def test_g1_profile_algebraic_side_is_ahead(medium_model):
    g1 = medium_model.gn_plus[1]
    right = np.abs(g1.values[g1.z_grid > 30]).mean()
    left = np.abs(g1.values[g1.z_grid < -30]).mean()
    assert right > 100 * left
