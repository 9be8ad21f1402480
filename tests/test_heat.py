import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from oracles import (SOURCE_SHAPES, bin_integral_by_direct_exponentials,
                     duhamel_by_direct_exponentials, duhamel_march_table,
                     fhat_on_largest_grid, heat_ifrk4, panel_edges_by_formula,
                     pointwise_bound_constant, solve_inhom,
                     un_reference_by_inverse_quadrature)
from ptails import heat, special, verify
from ptails.heat import (HeatSourceSpec, convergence_check, make_source,
                         solve_inhom_modes, un_reference_hat)
from ptails.spectral import Grid


@pytest.fixture(scope="module")
def gauss_spec():
    return make_source(1, 1, "gaussian")


def test_source_validation():
    # the limit profile, which every use of a source compares with, exists
    # for sigma = +-1 only
    for sigma in (-2, 0, 2, 3):
        with pytest.raises(ValueError, match="sigma must be -1 or 1"):
            make_source(1, sigma, "gaussian")
    with pytest.raises(ValueError):
        HeatSourceSpec(0, 1, heat.gaussian_fhat())


def test_mass_of_shapes():
    assert make_source(1, 1, "gaussian").mass == pytest.approx(1.0)
    assert abs(make_source(1, 1, "dgaussian").mass) < 1e-14


def test_zero_at_t0(gauss_spec):
    g = Grid(2 ** 10, 100.0)
    f = solve_inhom(gauss_spec, g, [0.0])[0]
    assert np.abs(f.coeffs).max() == 0.0


def test_zero_mode_is_zero(gauss_spec):
    uh = solve_inhom_modes(gauss_spec, np.array([0.0, 0.5]), 3.0)
    assert uh[0] == 0.0
    assert uh[1] != 0.0


def test_quadrature_matches_time_stepping(gauss_spec):
    # cross-module oracle: diffusion-only stepping with the prescribed source
    g = Grid(2 ** 10, 60.0)
    shape = SOURCE_SHAPES["gaussian"]

    def forcing(x, t):
        return (1.0 + t) ** (0.5 - 1.5) * shape((x - 2 * t) / np.sqrt(1 + t))

    u_stepped = heat_ifrk4(g, 1e-3, 1000, forcing)
    u_quad = solve_inhom(gauss_spec, g, [1.0])[0].samples()
    assert np.abs(u_stepped - u_quad).max() < 1e-8


def test_un_reference_physical_vs_fourier_form():
    # the two routes to the limit profile agree: f_n sampling vs continuum
    # inverse transform of the closed Fourier form
    x = np.linspace(-60.0, 60.0, 241)
    t = 4.0
    by_quad = un_reference_by_inverse_quadrature(1, 1, x, t)
    pref = (1 + t) ** -0.75 * 2.0 ** -1.5 / np.sqrt(4 * np.pi)
    by_fn = pref * special.fn_value(1, -x / np.sqrt(1 + t))
    assert np.abs(by_quad - by_fn).max() < 1e-6


def test_un_reference_rejects_sigma():
    with pytest.raises(ValueError):
        un_reference_hat(1, 2, np.array([0.5]), 1.0)


def test_un_rescaling_norm_exponent():
    # || u_n ||_2 scales as (1+t)^{-(3/4 - 2^{-(n+1)})} = (1+t)^{-1/2}; by
    # Parseval ||u||_2^2 = (1/pi) int_0^inf |uhat|^2 dk
    k = np.linspace(0.0, 20.0, 400001)

    def l2(t):
        return np.sqrt(trapezoid(np.abs(un_reference_hat(1, 1, k, t)) ** 2, k) / np.pi)

    assert l2(15.0) / l2(3.0) == pytest.approx((16.0 / 4.0) ** -0.5, rel=1e-4)


def test_un_odd_symmetry():
    # u_n for sigma = -1 is u_n for sigma = +1 mirrored and negated:
    # uhat_{-1}(k) = -uhat_{+1}(-k)
    k = np.linspace(-3.0, 3.0, 601)
    u1 = un_reference_hat(1, 1, k, 4.0)
    u2 = un_reference_hat(1, -1, -k, 4.0)
    assert np.abs(u1).max() > 0.0
    assert np.abs(u1 + u2).max() < 1e-15


def test_convergence_check_gaussian(gauss_spec):
    rep = convergence_check(gauss_spec, np.geomspace(10, 300, 10))
    assert rep.stabilized
    assert np.isfinite(rep.weighted_sup) and np.isfinite(rep.weighted_sup_d)
    assert rep.measured_C < 100.0


@pytest.mark.parametrize("times", [[100.0], [100.0, 50.0, 10.0], [1.0, 10.0, 10.0, 100.0],
                                   np.geomspace(10.0, 100.0, 25)])
def test_convergence_check_refuses_a_grid_that_cannot_show_stabilisation(gauss_spec, times):
    with pytest.raises(ValueError):
        convergence_check(gauss_spec, times)


def test_convergence_check_zero_mass_source():
    spec = make_source(1, 1, "dgaussian")
    rep = convergence_check(spec, np.geomspace(1, 300, 12))
    # M(f) = 0: the solution itself carries the starred-weight bound
    assert rep.stabilized
    assert np.isfinite(rep.weighted_sup)


def test_pointwise_bound_constant_grid_stable(gauss_spec):
    k1 = np.linspace(0.01, 3.0, 120)
    t1 = np.geomspace(1.0, 100.0, 12)
    c1 = pointwise_bound_constant(gauss_spec, k1, t1)
    c2 = pointwise_bound_constant(gauss_spec, np.linspace(0.005, 3.0, 240),
                                  np.geomspace(1.0, 100.0, 24))
    assert np.isfinite(c1) and c1 > 0
    assert c2 == pytest.approx(c1, rel=0.15)


def test_numeric_fhat_matches_analytic():
    # each named shape's sampled transform is the exact one make_source holds
    k = np.linspace(-4, 4, 101)
    for name, shape in SOURCE_SHAPES.items():
        fh = heat._numeric_fhat(shape)
        assert np.abs(fh(k) - make_source(1, 1, name).fhat(k)).max() < 1e-9


def _sized_fhat(shape, monkeypatch):
    """heat._numeric_fhat(shape) and the point counts of the grids it tried."""
    tried = []

    def recording_grid(n_points, half_length):
        tried.append(n_points)
        return Grid(n_points, half_length)

    monkeypatch.setattr(heat, "Grid", recording_grid)
    return heat._numeric_fhat(shape), tried


def _difference_from_largest_grid(fhat, shape) -> float:
    """Largest |fhat - oracle| over 0 <= k <= 18, relative to the peak: 18 is
    the largest argument of the t_final = 1000 transient sweep."""
    k = np.linspace(0.0, 18.0, 3601)
    ref = fhat_on_largest_grid(shape)(k)
    return float(np.abs(fhat(k) - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("name", ["gaussian", "dgaussian"])
def test_numeric_fhat_sized_by_spectrum_matches_largest_grid(name, monkeypatch):
    shape = SOURCE_SHAPES[name]
    fh, tried = _sized_fhat(shape, monkeypatch)
    assert tried == [2 ** 12]
    assert _difference_from_largest_grid(fh, shape) <= 1e-15


def test_numeric_fhat_doubles_for_a_narrow_shape(monkeypatch):
    # width 0.05: |fhat| reaches 1e-15 of its peak only near k = 166
    shape = lambda x: np.exp(-x * x / (2.0 * 0.05 ** 2))
    fh, tried = _sized_fhat(shape, monkeypatch)
    assert tried[-1] > 2 ** 13
    assert tried == [2 ** 12 * 2 ** i for i in range(len(tried))]
    assert _difference_from_largest_grid(fh, shape) <= 1e-15


def _reference_duhamel(k, t, power, c_osc, fhat_fn):
    """The single-time Duhamel quadrature written out in full, as the
    bitwise reference for the scalar path: magnitude bins of factor 1.35 on
    the panels of ``panel_edges_by_formula``, and on each panel the
    exponential e^{-k^2 (t-s) + i c k s} at s = mid + half x taken as the
    panel's factor e^{-k^2 (t-mid) + i c k mid} times the width's factor
    e^{(k^2 + i c k) half x}, with (1+s)^power folded into the weights."""
    gl, gw = np.polynomial.legendre.leggauss(16)
    out = np.zeros(k.size, dtype=complex)
    pos = np.flatnonzero(k > 0)
    order = pos[np.argsort(k[pos])]
    sorted_k = k[order]
    i = 0
    while i < sorted_k.size:
        j = int(np.searchsorted(sorted_k, sorted_k[i] * 1.35, side="right"))
        kb = sorted_k[i:j]
        rate = kb * kb + 1j * c_osc * kb
        edges = panel_edges_by_formula(t, kb[-1], c_osc, 0.0)
        acc = np.zeros(kb.size, dtype=complex)
        for a, b in zip(edges[:-1], edges[1:]):
            half, mid = (b - a) / 2, (b + a) / 2
            s = half * gl + mid
            e_mid = np.exp(-kb * kb * (t - mid) + 1j * (c_osc * kb * mid))
            e_off = np.exp(rate[:, None] * (half * gl)[None, :])
            fh = fhat_fn(kb[:, None] * np.sqrt(1.0 + s[None, :]))
            acc += e_mid * ((fh * e_off) @ ((1.0 + s) ** power * (half * gw)))
        out[order[i:j]] = acc
        i = j
    return out


def test_duhamel_scalar_time_matches_reference_bitwise():
    k = np.concatenate([[0.0], np.linspace(0.003, 5.0, 700)])[::-1].copy()
    fh = heat._numeric_fhat(SOURCE_SHAPES["gaussian"])
    for t in (0.7, 12.0, 300.0):
        got = heat._duhamel_integral(k, t, -0.5, -2.0, fh)
        assert np.array_equal(got, _reference_duhamel(k, t, -0.5, -2.0, fh))


def test_duhamel_chunking_is_bitwise(monkeypatch):
    # panel sums are added in panel order whatever the chunk size, so one
    # panel per chunk, a ragged chunk and the default all give the same bits
    k = np.concatenate([[0.0], np.linspace(0.003, 5.0, 700)])[::-1].copy()
    fh = heat._numeric_fhat(SOURCE_SHAPES["gaussian"])
    g = Grid(2 ** 13, 600.0)
    times = np.geomspace(2.5, 50.0, 46)
    k_cut = 8.5 / np.sqrt(1.0 + times) + 0.3
    km = g.k[(g.k >= 0) & (g.k <= k_cut[0])]
    marched = np.array(list(heat._duhamel_integral(km, times, -0.5, -2.0, fh,
                                                   k_cut=k_cut)))
    for chunk in (1, 16 * 7 * 3):
        monkeypatch.setattr(heat, "_CHUNK", chunk)
        for t in (0.7, 12.0, 300.0):
            got = heat._duhamel_integral(k, t, -0.5, -2.0, fh)
            assert np.array_equal(got, _reference_duhamel(k, t, -0.5, -2.0, fh))
        assert np.array_equal(
            list(heat._duhamel_integral(km, times, -0.5, -2.0, fh, k_cut=k_cut)), marched)


def _worst_row_error(got, ref) -> float:
    """Largest |got - ref| of each row relative to that row's largest |ref|,
    over the rows."""
    got, ref = np.atleast_2d(got), np.atleast_2d(ref)
    assert np.isfinite(got).all()
    return max(float(np.abs(g - r).max() / np.abs(r).max()) for g, r in zip(got, ref))


@pytest.mark.parametrize("case", [(1, 1, "gaussian"), (2, 1, "gaussian"),
                                  (1, -1, "dgaussian")])
def test_factored_integrand_matches_direct_exponentials(case):
    # the three heat sources of the benchmark, on the modes the continuum
    # norms integrate (k <= 8/sqrt(1+t) + 0.5) at three decades of t
    spec = make_source(*case)
    power, c_osc = spec.beta - 1.0, -2.0 * spec.sigma
    for t in (10.0, 100.0, 1000.0):
        k = np.linspace(0.002, 8.0 / np.sqrt(1.0 + t) + 0.5, 301)
        got = heat._duhamel_integral(k, t, power, c_osc, spec.fhat)
        ref = duhamel_by_direct_exponentials(k, t, power, c_osc, spec.fhat)
        assert _worst_row_error(got, ref) <= 1e-12, (case, t)


def test_factored_marched_rows_match_direct_exponentials():
    # the transient sweep's marched rows on the 2^13-point grid
    g = Grid(2 ** 13, 600.0)
    times = np.geomspace(2.5, 50.0, 46)
    k_cut = 8.5 / np.sqrt(1.0 + times) + 0.3
    k = g.k[(g.k >= 0) & (g.k <= k_cut[0])]
    fh = heat._numeric_fhat(SOURCE_SHAPES["gaussian"])
    rows = np.array(list(heat._duhamel_integral(k, times, -0.5, -2.0, fh, k_cut=k_cut)))
    ref = duhamel_march_table(k, times, -0.5, -2.0, fh, k_cut,
                              bin_integral=bin_integral_by_direct_exponentials)
    assert _worst_row_error(rows, ref) <= 1e-12


def test_factored_exponentials_stay_in_range():
    # every panel has half-width <= 3/k_hi^2 (the diffusion step), so the
    # width factor e^{(k^2 + i c k) half x} has modulus <= e^3, and the panel
    # factor's real part -k^2 (t - mid) is never positive.  A high bin and a
    # tiny mode at t = 1e5: an overflowed factor would give inf, or nan
    # against a transform that has underflowed to zero
    spec = make_source(1, 1, "gaussian")
    power, c_osc = spec.beta - 1.0, -2.0 * spec.sigma
    t = 1e5
    high = np.linspace(20.0, 27.0, 50)
    tiny = np.array([1e-3])
    for kb in (high, tiny):
        got = heat._bin_integral(kb, 0.0, t, power, c_osc, spec.fhat)
        ref = bin_integral_by_direct_exponentials(kb, 0.0, t, power, c_osc, spec.fhat)
        assert np.isfinite(got).all()
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # a transform that does not vanish up there: the phase c k s at s ~ t
    # carries a rounding error of about |c| k t eps radians in either form,
    # 1.2e-9 here, so the two forms agree to that and not to 1e-12
    flat = lambda z: 1.0 / (1.0 + 1e-8 * z * z)
    got = heat._bin_integral(high, 0.0, t, power, c_osc, flat)
    ref = bin_integral_by_direct_exponentials(high, 0.0, t, power, c_osc, flat)
    assert np.isfinite(got).all() and np.abs(ref).min() > 0.0
    phase_eps = abs(c_osc) * high[-1] * t * np.finfo(float).eps
    assert _worst_row_error(got, ref) <= 2.0 * phase_eps
    got = heat._bin_integral(tiny, 0.0, t, power, c_osc, flat)
    ref = bin_integral_by_direct_exponentials(tiny, 0.0, t, power, c_osc, flat)
    assert _worst_row_error(got, ref) <= 1e-12


def test_bin_integral_temporaries_bounded_by_chunk():
    # a flagship-sized bin (2^15 points on [-2500, 2500]: about 1,800 modes
    # in k in [6.5, 8.8]) takes one panel per chunk; evaluating its 7 panels
    # at once would hold about 15 MB of temporaries
    kb = np.arange(6.5, 8.775, 2.0 * np.pi / 5000.0)
    assert 1700 < kb.size < 1900
    fh = heat._numeric_fhat(SOURCE_SHAPES["gaussian"])
    heat._bin_integral(kb, 0.0, 50.0, -0.5, -2.0, fh)
    tracemalloc.start()
    try:
        heat._bin_integral(kb, 0.0, 50.0, -0.5, -2.0, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # eight complex arrays of one chunk (16 nodes per panel)
    assert peak < 8 * 16 * max(heat._CHUNK, kb.size * 16)


def test_duhamel_marched_matches_per_time_calls():
    g = Grid(2 ** 13, 600.0)
    times = np.geomspace(2.5, 50.0, 46)
    k_cut = 8.5 / np.sqrt(1.0 + times) + 0.3
    k = g.k[(g.k >= 0) & (g.k <= k_cut[0])]
    fh = heat._numeric_fhat(SOURCE_SHAPES["gaussian"])
    rows = np.array(list(heat._duhamel_integral(k, times, -0.5, -2.0, fh, k_cut=k_cut)))
    assert rows.shape == (times.size, k.size)
    for m, t in enumerate(times):
        alive = k <= k_cut[m]
        ref = heat._duhamel_integral(k[alive], t, -0.5, -2.0, fh)
        err = np.abs(rows[m, alive] - ref).max() / np.abs(ref).max()
        assert err <= 1e-9
        assert np.all(rows[m, ~alive] == 0.0)
    # without a cut every mode is carried to the last time
    *_, last = heat._duhamel_integral(k, times[-3:], -0.5, 2.0, fh)
    ref = heat._duhamel_integral(k, times[-1], -0.5, 2.0, fh)
    assert np.abs(last - ref).max() <= 1e-9 * np.abs(ref).max()


def test_streamed_march_matches_the_materialised_table():
    # the flagship grid's modes under the transient sweep's cut: the rows
    # drawn one at a time are byte-equal to the table filled in full
    g = Grid(2 ** 15, 2500.0)
    times = np.geomspace(2.5, 20.0, 16)
    k_cut = 8.5 / np.sqrt(1.0 + times) + 0.3
    k = g.k[(g.k >= 0) & (g.k <= k_cut[0])]
    fh = heat._numeric_fhat(SOURCE_SHAPES["gaussian"])
    rows = heat._duhamel_integral(k, times, -0.5, -2.0, fh, k_cut=k_cut)
    table = duhamel_march_table(k, times, -0.5, -2.0, fh, k_cut)
    streamed = np.array(list(rows))
    assert streamed.tobytes() == table.tobytes()
    assert np.all(table[-1][k > k_cut[-1]] == 0.0) and np.abs(table[-1]).max() > 0.0


def test_transient_sweep_holds_one_row():
    # between draws the sweep holds the march's per-mode sums and no
    # grid-sized array: about half a spectrum, where the (times, modes)
    # table would be about 23 of them.  With its full-grid mode mask, mirror
    # index and last row kept between draws it held 2.7
    g = Grid(2 ** 13, 600.0)
    times = np.geomspace(2.5, 50.0, 200)
    fh = heat._numeric_fhat(SOURCE_SHAPES["gaussian"])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sweep = verify._transient_sweep(-0.3, -2.0, fh, g, times)
        held = []
        for _ in range(3):
            next(sweep)
            held.append(tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    spectrum = 16 * g.n_points
    modes = np.count_nonzero((g.k >= 0) & (g.k <= 8.5 / np.sqrt(1.0 + times[0]) + 0.3))
    assert times.size * modes * 16 > 20 * spectrum
    assert max(held) < 1 * spectrum, [h / spectrum for h in held]


def test_duhamel_marched_rejects_bad_times():
    fh = heat.gaussian_fhat()
    k = np.array([0.5, 1.0])
    with pytest.raises(ValueError):
        heat._duhamel_integral(k, np.array([2.0, 1.0]), -0.5, -2.0, fh)
    with pytest.raises(ValueError):
        heat._duhamel_integral(k, np.array([1.0, 2.0]), -0.5, -2.0, fh,
                               k_cut=np.array([1.0, 2.0]))
