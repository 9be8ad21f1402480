import numpy as np
import pytest

from oracles import build_expansion_terms, rn_envelope_constant
from ptails import profiles, special
from ptails.nonlinearity import (default_nonlinearity, quadratic_nonlinearity,
                                 zero_nonlinearity)
from ptails.profiles import (ExpansionCoefficients, build_expansion_model,
                             burgers_residual, corrected_trapezoid,
                             d_coefficients_analytic, g0_function, g0_profile,
                             gn_equation_residual, gn_fixed_point,
                             gn_total_mass, graded_grid, hessian_constants,
                             profile_mass)


def test_graded_grid_shape(zgrid):
    assert np.all(np.diff(zgrid) > 0)
    assert zgrid[0] == -60.0 and zgrid[-1] == 60.0
    assert np.allclose(zgrid, -zgrid[::-1])
    h = np.diff(zgrid)
    assert h.min() <= 1.1e-3          # fine at the origin
    assert h.max() <= 0.1 + 1e-12     # graded up to the cap at the ends


def test_g0_mass_and_residual(zgrid):
    prof = g0_profile(0.5, 0.25, zgrid)
    assert prof.mass_error < 1e-8
    assert burgers_residual(prof) < 1e-8


def test_g0_gamma_zero_is_heat_gaussian(zgrid):
    prof = g0_profile(0.7, 0.0, zgrid)
    gauss = 0.7 * np.exp(-zgrid ** 2 / 4) / np.sqrt(4 * np.pi)
    assert np.abs(prof.sample.values - gauss).max() < 1e-14
    assert burgers_residual(prof) < 1e-12    # gamma = 0: plain heat profile


def test_g0_small_gamma_approaches_gaussian(zgrid):
    prof = g0_profile(0.5, 1e-8, zgrid)
    gauss = 0.5 * np.exp(-zgrid ** 2 / 4) / np.sqrt(4 * np.pi)
    assert np.abs(prof.sample.values - gauss).max() < 1e-7


def test_g0_pole_guard():
    z = graded_grid()
    with pytest.raises(ValueError):
        g0_profile(40.0, 1.0, z)


def test_g0_derivatives_vs_finite_differences(zgrid):
    prof = g0_profile(0.5, 0.25, zgrid)
    fn = g0_function(0.5, 0.25)
    z = np.linspace(-8, 8, 41)
    h = 1e-5
    fd1 = (fn(z + h) - fn(z - h)) / (2 * h)
    from scipy.interpolate import CubicSpline
    sp = CubicSpline(zgrid, prof.sample.derivs[1])
    assert np.abs(sp(z) - fd1).max() < 1e-7


def test_hessian_constants_default():
    cp, cm, c3 = hessian_constants(default_nonlinearity())
    assert (cp, cm, c3) == pytest.approx((0.25, -0.25, 0.5))


def test_hessian_constants_zero():
    cp, cm, c3 = hessian_constants(zero_nonlinearity())
    assert (cp, cm, c3) == (0.0, 0.0, 0.0)


def test_hessian_constants_sum_square():
    # g = (a+b)^2 is purely the plus-family square: the quadratic form has
    # unit coefficient on (a+b)^2 and no minus or mixed part
    nl = quadratic_nonlinearity(gaa=1.0, gab=2.0, gbb=1.0, fa=0.0)
    cp, cm, c3 = hessian_constants(nl)
    assert (cp, cm, c3) == pytest.approx((1.0, 0.0, 0.0))


def test_inadmissible_rejected():
    from ptails.nonlinearity import Nonlinearity
    bad = Nonlinearity(g=lambda a, b: a, f=lambda a, b: a,
                       hessian=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        hessian_constants(bad)


def test_gn_gamma_zero_returns_fn(zgrid):
    gn, rn, info = gn_fixed_point(1, 0.5, 0.0, zgrid, sign="+")
    assert np.abs(rn.values).max() == 0.0
    assert np.abs(gn.values - special.fn_value(1, -zgrid)).max() < 1e-14
    assert info.converged


def test_gn_contraction_regime_guard(zgrid):
    with pytest.raises(ValueError):
        gn_fixed_point(1, 2.0, 0.2, zgrid, "+")


@pytest.mark.parametrize("sign", ["+", "-"])
def test_gn_fixed_point_residual_and_mass(zgrid, sign):
    alpha, gam = 0.5, 0.1
    g0 = g0_profile(alpha, gam, zgrid)
    gn, rn, info = gn_fixed_point(1, alpha, gam, zgrid, sign)
    assert info.converged and info.iterations <= 50
    assert gn_equation_residual(gn, g0, 1, gam) < 1e-8
    assert abs(gn_total_mass(gn, 1)) < 1e-6
    assert abs(profile_mass(rn)) < 1e-6


def test_gn_contraction_factor_scales_with_alpha_gamma(zgrid):
    _, _, i1 = gn_fixed_point(1, 0.5, 0.05, zgrid, "+")
    _, _, i2 = gn_fixed_point(1, 0.5, 0.1, zgrid, "+")
    assert i1.contraction_factor < i2.contraction_factor < 1.0


def test_gn_residual_orders_2_to_4(zgrid):
    alpha, gam = 0.5, 0.1
    g0 = g0_profile(alpha, gam, zgrid)
    for n in (2, 3, 4):
        gn, rn, info = gn_fixed_point(n, alpha, gam, zgrid, "+")
        assert gn_equation_residual(gn, g0, n, gam) < 1e-7
        assert abs(gn_total_mass(gn, n)) < 1e-6


def test_gn_derivatives_vs_finite_differences(zgrid):
    gn, rn, _ = gn_fixed_point(1, 0.5, 0.1, zgrid, "+")
    from scipy.interpolate import CubicSpline
    z = np.linspace(-6, 6, 31)
    h = 1e-4
    sp0 = CubicSpline(zgrid, gn.values)
    sp1 = CubicSpline(zgrid, gn.derivs[1])
    sp2 = CubicSpline(zgrid, gn.derivs[2])
    assert np.abs(sp1(z) - (sp0(z + h) - sp0(z - h)) / (2 * h)).max() < 5e-5
    assert np.abs(sp2(z) - (sp1(z + h) - sp1(z - h)) / (2 * h)).max() < 5e-5


def test_gn_tail_dichotomy(zgrid):
    gn, _, _ = gn_fixed_point(1, 0.5, 0.1, zgrid, sign="+")
    slope, _, _ = special.tail_exponent_fit(zgrid, gn.values, (20.0, 60.0))
    assert slope == pytest.approx(-1.5, abs=0.05)
    # Gaussian side: remainder envelope constant finite and O(|alpha gamma|)
    gn2, rn2, _ = gn_fixed_point(1, 0.5, 0.05, zgrid, sign="+")
    c1 = rn_envelope_constant(rn2, 1, order=0)
    gn3, rn3, _ = gn_fixed_point(1, 0.5, 0.1, zgrid, sign="+")
    c2 = rn_envelope_constant(rn3, 1, order=0)
    assert np.isfinite(c1) and np.isfinite(c2)
    assert c2 / c1 == pytest.approx(2.0, rel=0.4)    # proportional to |alpha gamma|


def test_gn_mirror_symmetry(zgrid):
    # the leading profile is invariant under (z, gamma) -> (-z, -gamma), so
    # the two tail orientations map onto each other under that reflection
    gp, _, _ = gn_fixed_point(1, 0.5, -0.1, zgrid, sign="+")
    gm, _, _ = gn_fixed_point(1, 0.5, 0.1, zgrid, sign="-")
    assert np.abs(gp.values - gm.values[::-1]).max() < 1e-10


def _default_model(N=1):
    co = ExpansionCoefficients(alpha_plus=0.23, alpha_minus=0.124,
                               c_plus=0.25, c_minus=-0.25, N=N)
    z = graded_grid()
    model = build_expansion_model(co, z)
    co.d = d_coefficients_analytic(model)
    return model


def test_expansion_terms_t0_identity():
    model = _default_model()
    x = np.linspace(-50, 50, 501)
    u0, u1, v0, v1 = build_expansion_terms(model, 0.0, x)
    s = model.g0_plus.sample
    cubic = special.hermite_interpolant(s.z_grid, s.values, s.derivs[1])
    assert np.abs(u0 - cubic(x)).max() < 1e-12


@pytest.mark.parametrize("alpha, gamma", [(0.5, 0.1), (0.4, 0.2), (0.5, -0.15)])
def test_hermite_interpolant_of_g0_no_worse_than_a_spline(alpha, gamma):
    # on the graded grid, the Hermite cubic on g_0's exact slopes against the
    # closed form, midway between the samples where the error peaks, next to
    # scipy's not-a-knot spline of the same values
    from scipy.interpolate import CubicSpline
    z = graded_grid()
    s = g0_profile(alpha, gamma, z).sample
    mid = (z[1:] + z[:-1]) / 2.0
    exact = g0_function(alpha, gamma)(mid)
    hermite = np.abs(special.hermite_interpolant(z, s.values, s.derivs[1])(mid) - exact).max()
    spline = np.abs(CubicSpline(z, s.values)(mid) - exact).max()
    assert hermite <= spline
    assert hermite <= 3e-8 * np.abs(s.values).max()


def test_expansion_terms_negative_time_rejected():
    model = _default_model()
    with pytest.raises(ValueError):
        build_expansion_terms(model, -1.0, np.zeros(4))


def test_expansion_l2_rescaling_identity():
    model = _default_model()
    x = np.linspace(-2000, 2000, 2 ** 16)
    dx = x[1] - x[0]
    n0 = None
    for t in (0.0, 3.0, 48.0):
        u0, _, _, _ = build_expansion_terms(model, t, x)
        l2 = np.sqrt(np.sum(u0 ** 2) * dx)
        if n0 is None:
            n0 = l2
        else:
            assert l2 == pytest.approx(n0 * (1 + t) ** -0.25, rel=1e-6)


def test_expansion_u1_term_scaling_slope():
    model = _default_model()
    x = np.linspace(-3000, 3000, 2 ** 16)
    dx = x[1] - x[0]
    ts = np.geomspace(1, 1000, 12)
    norms = []
    for t in ts:
        _, u1, _, _ = build_expansion_terms(model, t, x)
        norms.append(np.sqrt(np.sum(u1 ** 2) * dx))
    slope = np.polyfit(np.log(1 + ts), np.log(norms), 1)[0]
    assert slope == pytest.approx(-(0.75 - 0.25), abs=0.01)


def test_d_coefficients_zero_sources():
    co = ExpansionCoefficients(alpha_plus=0.2, alpha_minus=0.1,
                               c_plus=0.25, c_minus=0.0, N=2)
    model = build_expansion_model(co, graded_grid())
    d = d_coefficients_analytic(model)
    assert d[0][0] == 0.0 and d[1][0] == 0.0      # no driving source for u
    assert d[0][1] != 0.0                          # v is driven by c_plus


def test_d1_analytic_magnitude():
    # kappa_1 = 2^{-3/2}/sqrt(4 pi) against a hand-computed Gaussian-mass case
    model = _default_model()
    d = d_coefficients_analytic(model)
    g0m = model.g0_minus.sample
    m2 = corrected_trapezoid(g0m.values ** 2, 2 * g0m.values * g0m.derivs[1],
                             g0m.z_grid)
    kappa1 = 2 ** -1.5 / np.sqrt(4 * np.pi)
    assert d[0][0] == pytest.approx(0.25 * m2 * kappa1, rel=1e-12)


def test_epsilon_consistency():
    co = ExpansionCoefficients(0.1, 0.1, 0.25, -0.25, N=3)
    assert co.epsilon == 0.5 ** 5
