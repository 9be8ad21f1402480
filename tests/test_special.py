import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma

from oracles import (EnvelopeDescriptor, Jn_infinity_extrapolated,
                     envelope_check, eval_Jn, fn_large_z, fn_mass_per_panel,
                     fn_oracle, fn_profile, ode_residual)
from ptails import special
from ptails.special import (Jn_infinity, fn_mass, fn_value, hermite_interpolant,
                            lcal_apply, tail_exponent_fit)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 14, 20])
def test_fn_at_zero_gamma_closed_form(n):
    beta = 0.5 ** n
    expected = 2.0 ** beta * gamma((1.0 + beta) / 2.0)
    tol = 1e-10 if n <= 8 else 1e-12 * 2.0 ** n
    assert abs(fn_value(n, 0.0) - expected) <= tol


def test_fn_n1_matches_sqrt2_gamma34():
    assert fn_value(1, 0.0) == pytest.approx(np.sqrt(2.0) * gamma(0.75), abs=1e-10)


def test_fn_out_of_range():
    with pytest.raises(ValueError):
        fn_value(0, 1.0)
    with pytest.raises(ValueError):
        fn_value(21, 1.0)
    with pytest.raises(ValueError):
        fn_value(1, 301.0)


@pytest.mark.parametrize("n", [1, 4, 12])
def test_fn_multi_order_rows_equal_single_order_calls(n):
    # the orders share each panel's exponential; every row keeps the bits
    z = np.linspace(-30.0, 30.0, 241)
    orders = (3, -1, 0, 1, 2)
    for zz in (z, -2.5, 4.0):
        rows = fn_value(n, zz, orders)
        assert rows.shape == (len(orders),) + np.shape(zz)
        for row, m in zip(rows, orders):
            assert row.tobytes() == np.asarray(fn_value(n, zz, m)).tobytes()
    with pytest.raises(ValueError):
        fn_value(n, z, (0, 1, 4))
    with pytest.raises(ValueError):
        fn_value(n, z, (-2, 0))


def test_fn_blocking_is_bitwise(monkeypatch):
    # every block sees the panels the whole call's smallest z sets (here in
    # the last block), and every block but the last is a whole number of the
    # weight products' row groups, so blocks of 8 to 10^6 points give the
    # same bits; 1,025 points leave a last block of one point at each size
    cases = []
    for npts in (1025, 2001):
        z = np.linspace(30.0, -40.0, npts)
        cases += [(z, (0, 1, 2, 3)), (z, -1), (np.abs(z), (3, 0))]
    cases += [(-7.5, (0, 1)), (2.0, 2)]
    monkeypatch.setattr(special, "_Z_BLOCK", 10 ** 6)
    whole = [fn_value(3, z, order) for z, order in cases]
    for block in (8, 64, 512):
        monkeypatch.setattr(special, "_Z_BLOCK", block)
        for (z, order), ref in zip(cases, whole):
            got = fn_value(3, z, order)
            assert np.shape(got) == np.shape(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (block, np.size(z))


def _fn_peak(npts):
    z = np.linspace(-30.0, 30.0, npts)
    tracemalloc.start()
    try:
        fn_value(2, z, (0, 1, 2, 3))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fn_temporaries_bounded_by_block():
    # four times the points cost the larger output rows and at most one
    # block's (points x 24 nodes) temporaries more, not four times the
    # whole-call (points x 24) arrays
    _fn_peak(2001)
    growth = _fn_peak(8001) - _fn_peak(2001)
    output_rows = 4 * (8001 - 2001) * 8
    one_block = 4 * (special._Z_BLOCK + 1) * 24 * 8
    assert growth <= output_rows + one_block, growth


@pytest.mark.parametrize("n", [8, 16, 20, 24])
def test_unit_rule_is_numpys_leggauss(n):
    x, w = special._unit_rule(n)
    nx, nw = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == nx.tobytes() and w.tobytes() == nw.tobytes()


def test_polys_are_numpys_polynomials():
    # P_{-1} = -2, P_0 = w, P_{m+1} = P_m' - (w/2) P_m, built and evaluated
    # as numpy.polynomial builds and evaluates them, signed zeros included
    x = np.array([-0.0, 0.0, 1e-300, -0.75, 2.5, -13.0, 41.0])
    ref = {-1: np.polynomial.Polynomial([-2.0]), 0: np.polynomial.Polynomial([0.0, 1.0])}
    for m in range(0, 6):
        ref[m + 1] = ref[m].deriv() - np.polynomial.Polynomial([0.0, 0.5]) * ref[m]
    assert sorted(special._POLYS) == list(range(-1, 7))
    for m, poly in ref.items():
        assert special._POLYS[m].tobytes() == poly.coef.tobytes(), m
        assert special._polyval(special._POLYS[m], x).tobytes() == poly(x).tobytes(), m


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("z", [-25.0, -3.3, 0.0, 0.7, 7.7, 28.0])
def test_fn_against_adaptive_quadrature_oracle(n, z):
    mine = float(fn_value(n, z))
    other = fn_oracle(n, z)
    assert abs(mine - other) <= 1e-10 + 1e-10 * abs(other)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_fn_derivatives_vs_central_differences(order):
    z = np.linspace(-6, 6, 25)
    h = 1e-4
    lower = fn_value(1, z - h, order - 1)
    upper = fn_value(1, z + h, order - 1)
    fd = (upper - lower) / (2 * h)
    assert np.abs(fd - fn_value(1, z, order)).max() < 1e-6


def test_fn_antiderivative_consistency():
    z = np.linspace(-4, 4, 9)
    h = 1e-4
    fd = (fn_value(1, z + h, -1) - fn_value(1, z - h, -1)) / (2 * h)
    assert np.abs(fd - fn_value(1, z)).max() < 1e-7


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fn_zero_mass(n):
    assert abs(fn_mass(n)) <= 1e-8


def test_fn_mass_tail_refinement():
    # enlarging the exactly-corrected tail cut must not move the mass
    a = fn_mass(1, z_cut=25.0)
    b = fn_mass(1, z_cut=35.0)
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 20])
def test_fn_mass_one_call_equals_per_panel_calls(n):
    # the nodes beyond a panel's own regular-region extent add terms far
    # below one ulp of its values, and the panels are summed in the same order
    assert fn_mass(n) == fn_mass_per_panel(n)
    assert fn_mass(n, z_cut=25.0) == fn_mass_per_panel(n, z_cut=25.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ode_residual_small(n):
    z = np.linspace(-10, 10, 801)
    prof = fn_profile(n, z)
    assert ode_residual(prof, n) <= 1e-8


def test_gaussian_eigen_mismatch():
    # L applied to exp(-z^2/4) leaves (1/2 - 2^{-(n+1)}) exp(-z^2/4)
    z = np.linspace(-5, 5, 101)
    g = np.exp(-z * z / 4)
    d1 = -(z / 2) * g
    d2 = (-0.5 + z * z / 4) * g
    for n in (1, 3):
        res = lcal_apply(g, d1, d2, z, n)
        expected = (0.5 - 0.5 ** (n + 1)) * g
        assert np.abs(res - expected).max() < 1e-12


def test_zgaussian_eigen_mismatch():
    # L applied to z exp(-z^2/4) leaves -2^{-(n+1)} z exp(-z^2/4): the
    # dilation-family member is an exact eigenfunction only as n -> infinity
    z = np.linspace(-5, 5, 101)
    g = z * np.exp(-z * z / 4)
    d1 = (1 - z * z / 2) * np.exp(-z * z / 4)
    d2 = (-1.5 * z + z ** 3 / 4) * np.exp(-z * z / 4)
    for n in (1, 4):
        res = lcal_apply(g, d1, d2, z, n)
        expected = -0.5 ** (n + 1) * g
        assert np.abs(res - expected).max() < 1e-12


def test_large_n_limit_rescaled_profile():
    z = np.linspace(-10, 10, 201)
    diff = np.abs(0.5 ** 14 * fn_value(14, z) - z * np.exp(-z * z / 4))
    assert diff.max() <= 1e-3


@pytest.mark.parametrize("n", [1, 2, 6])
def test_fn_gaussian_tail_matches_large_z_series(n):
    # the Gaussian side the envelope tests weight by e^{z^2/4}, against the
    # series from expanding e^{-xi^2/4} under the integral
    for z in (30.0, 40.0):
        ref = fn_large_z(n, z)
        assert abs(fn_value(n, z) - ref) <= 1e-13 * abs(ref)


def test_envelope_family_m0():
    # weighted sup of f_1 under rho_{beta-1, 2-beta} stays finite
    z = np.linspace(-40, 40, 1601)
    env = EnvelopeDescriptor(-0.5, 1.5)
    ok, measured = envelope_check(z, np.abs(fn_value(1, z)), env, c_max=1e3)
    assert ok and 0.1 < measured < 1e3


def test_envelope_zero_profile():
    z = np.linspace(-5, 5, 11)
    ok, measured = envelope_check(z, np.zeros_like(z), EnvelopeDescriptor(1.0, 1.0), 1.0)
    assert ok and measured == 0.0


def test_envelope_constants_grow_at_most_geometrically():
    # the per-n constants of the weighted bounds grow no faster than ~2^n
    z = np.linspace(-30, 30, 1201)
    cs = []
    for n in range(1, 7):
        beta = 0.5 ** n
        env = EnvelopeDescriptor(beta - 1.0, 2.0 - beta)
        cs.append(envelope_check(z, np.abs(fn_value(n, z)), env, np.inf)[1])
    slope = np.polyfit(np.arange(1, 7), np.log2(cs), 1)[0]
    assert slope <= 1.1


def test_Jn_zero():
    assert eval_Jn(1, 0.0) == 0.0


def test_Jn_negative_rejected():
    with pytest.raises(ValueError):
        eval_Jn(1, -1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_Jn_limit_bound(n):
    beta = 0.5 ** n
    jinf = Jn_infinity(n)
    zs = np.geomspace(0.1, 1000.0, 120)
    sup = max(abs(eval_Jn(n, z) - jinf) * z ** (1 - beta) for z in zs)
    assert sup <= 0.5 + 1e-6


@pytest.mark.parametrize("n", [1, 2])
def test_Jn_infinity_extrapolation_oracle(n):
    # Richardson extrapolation of the oscillatory integral validates the
    # closed form Gamma(b) 2^{-b} e^{i pi b/2}
    assert abs(Jn_infinity(n) - Jn_infinity_extrapolated(n)) < 1e-8


@pytest.mark.parametrize("n", range(1, 7))
def test_Jn_infinity_closed_form_with_scipy_gamma(n):
    beta = 0.5 ** n
    expected = gamma(beta) * 2.0 ** (-beta) * np.exp(1j * np.pi * beta / 2.0)
    assert abs(Jn_infinity(n) - expected) <= 1e-14 * abs(expected)


def test_erf_matches_scipy_to_one_ulp():
    from scipy.special import erf as scipy_erf
    tiny = np.geomspace(1e-300, 1.0, 1000)
    x = np.concatenate([np.linspace(-30.0, 30.0, 2 ** 17 + 1), tiny, -tiny,
                        [0.0, -0.0, np.inf, -np.inf]])
    got, ref = special.erf(x), scipy_erf(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    err = np.abs(got - ref)
    assert np.all((err <= np.spacing(np.abs(ref))) | (err <= 5e-16 * np.abs(ref)))
    assert list(got[-4:]) == [0.0, 0.0, 1.0, -1.0]
    # exactly odd, signed zero included
    assert (-special.erf(-x)).tobytes() == got.tobytes()
    assert np.signbit(got[-3]) and not np.signbit(got[-4])


def test_erf_of_a_scalar_is_a_float():
    for x in (0.5, np.float64(0.5), np.array(0.5)):
        v = special.erf(x)
        assert isinstance(v, float) and v == special.erf(np.array([0.5]))[0]


def test_tail_fit_pure_power():
    z = np.linspace(1.0, 100.0, 500)
    slope, resid, sign = tail_exponent_fit(z, z ** -2.0, (5.0, 80.0))
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert resid < 1e-12 and not sign
    # the shared fit on its own, signs ignored
    slope, resid = special.loglog_fit(-z, -3.0 * z ** -1.5)
    assert slope == pytest.approx(-1.5, abs=1e-12) and resid < 1e-13


@pytest.mark.parametrize("n", [16, 20, 24])
def test_panel_rule_exact_to_degree_2n_minus_1(n):
    # uneven panels; with u = 2 (x - a)/(b - a) - 1, u^j integrates to
    # (b - a)/(j + 1) for even j and to 0 for odd j
    edges = np.array([-3.0, -2.7, -1.0, 0.25, 0.3, 4.0])
    a, b = edges[:-1], edges[1:]
    nodes, weights = special.panel_rule(a, b, n)
    assert nodes.shape == weights.shape == (a.size, n)
    assert np.all((nodes > a[:, None]) & (nodes < b[:, None]))
    u = 2.0 * (nodes - a[:, None]) / (b - a)[:, None] - 1.0
    exact = lambda j: (b - a) * (j % 2 == 0) / (j + 1)
    for j in range(2 * n):
        np.testing.assert_allclose(np.sum(weights * u ** j, axis=1), exact(j),
                                   rtol=1e-13, atol=1e-15)


def test_tail_fit_f1_left_tail():
    z = -np.geomspace(20.0, 200.0, 60)[::-1]
    vals = fn_value(1, z)
    slope, _, _ = tail_exponent_fit(-z, vals, (20.0, 200.0))
    assert slope == pytest.approx(-1.5, abs=0.05)


def test_tail_fit_f2_left_tail():
    z = -np.geomspace(20.0, 200.0, 60)[::-1]
    vals = fn_value(2, z)
    slope, _, _ = tail_exponent_fit(-z, vals, (20.0, 200.0))
    assert slope == pytest.approx(-1.75, abs=0.05)


def test_tail_fit_flags_sign_change():
    z = np.linspace(1.0, 50.0, 300)
    vals = np.sin(z / 5.0) * z ** -1.0
    slope, _, flagged = tail_exponent_fit(z, vals, (2.0, 45.0))
    assert flagged


def test_left_tail_asymptotic_constant():
    # f_n(z) ~ -4 sqrt(pi) (1 - beta) |z|^{beta - 2} as z -> -infty
    beta = 0.5
    pred = -4 * np.sqrt(np.pi) * (1 - beta) * 300.0 ** (beta - 2)
    assert fn_value(1, -300.0) == pytest.approx(pred, rel=2e-3)


def test_profile_sample_validation():
    with pytest.raises(ValueError):
        special.ProfileSample(z_grid=np.array([0.0, 0.0, 1.0]),
                              values=np.zeros(3))


def test_hermite_interpolant_reproduces_a_cubic():
    # a cubic with its exact slopes is reproduced to rounding on any grid,
    # for real and complex samples
    x = np.sort(np.random.default_rng(7).uniform(-3.0, 3.0, 40))
    c = lambda z: 0.3 * z ** 3 - z ** 2 + 2.0 * z - 1.0
    dc = lambda z: 0.9 * z ** 2 - 2.0 * z + 2.0
    z = np.linspace(x[0], x[-1], 1001)
    for scale in (1.0, 1.0 - 2.0j):
        cubic = hermite_interpolant(x, scale * c(x), scale * dc(x))
        exact = scale * c(z)
        assert np.abs(cubic(z) - exact).max() <= 1e-14 * np.abs(exact).max()
