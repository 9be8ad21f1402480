import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_real_field, run_collecting
from oracles import symmetrized_by_formula, x2_weighted_l2
from ptails.nonlinearity import default_nonlinearity
from ptails.solver import SimConfig
from ptails.spectral import (Grid, NormReport, SpectralField, coeffs_of,
                             derivative, field_from_continuum_fhat, mass,
                             norms, samples_of, symmetrize, transform_forward)


def test_grid_invariants():
    g = Grid(2 ** 12, 50.0)
    assert g.dx * g.n_points == pytest.approx(2 * g.half_length)
    k = g.k
    # antisymmetric about zero away from the Nyquist mode
    assert np.allclose(np.sort(k[1:g.n_points // 2]),
                       np.sort(-k[g.n_points // 2 + 1:]))


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        Grid(1000, 50.0)


@pytest.mark.parametrize("half_length", [0.0, -1.0, float("nan")])
def test_grid_rejects_a_half_length_that_is_not_positive(half_length):
    with pytest.raises(ValueError, match="half_length must be positive"):
        Grid(2 ** 8, half_length)


def test_constant_function_is_dc_mode():
    g = Grid(2 ** 8, 10.0)
    f = transform_forward(np.ones(g.n_points), g)
    assert abs(f.coeffs[0] - 1.0) < 1e-14
    assert np.abs(f.coeffs[1:]).max() < 1e-14


def test_round_trip():
    g = Grid(2 ** 10, 30.0)
    x = np.exp(-g.x ** 2 / 3.0) * np.cos(g.x)
    rec = transform_forward(x, g).samples()
    assert np.abs(rec - x).max() < 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("log2n", [10, 14, 18])
def test_round_trip_many_sizes(log2n, rng):
    g = Grid(2 ** log2n, 100.0)
    f = random_real_field(g, rng)
    s = f.samples()
    rec = transform_forward(s, g).samples()
    assert np.abs(rec - s).max() < 1e-12 * max(np.abs(s).max(), 1e-30)


def _nonlinear_snapshot():
    cfg = SimConfig(n_points=2 ** 12, half_length=120.0, t_final=5.0,
                    n_snapshots=4)
    return run_collecting(cfg, default_nonlinearity())[1][-1], cfg.n_points


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy's fft takes out= from numpy 2 on")
def test_transform_pair_is_bytewise_the_numpy_transforms():
    # the norm="forward" pair gives the bits of the unnormalized numpy
    # transforms with an exact 1/n, on a nonlinear trajectory snapshot, and
    # leaves its input alone
    snap, n = _nonlinear_snapshot()
    for fld in (snap.first, snap.second):
        c = fld.coeffs
        c_before = c.copy()
        x = samples_of(c).real
        assert x.tobytes() == np.fft.ifft(c * n).real.tobytes()
        assert c.tobytes() == c_before.tobytes()
        h = x * x
        h_before = h.copy()
        assert coeffs_of(h).tobytes() == (np.fft.fft(h) / n).tobytes()
        assert h.tobytes() == h_before.tobytes()


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy and scipy share one pocketfft from numpy 2 on")
def test_transform_pair_is_bytewise_the_scipy_pair():
    # numpy's pair replaced scipy.fft's c2c pair: the same bits on a nonlinear
    # snapshot, so the IF-RK4 trajectory did not move; the in-place forward
    # transform leaves a real and a complex input alone
    scipy_fft = pytest.importorskip("scipy.fft")
    snap, _ = _nonlinear_snapshot()
    for fld in (snap.first, snap.second):
        c = fld.coeffs
        x = scipy_fft.ifft(c, norm="forward")
        assert samples_of(c).tobytes() == x.tobytes()
        for h in (x.real * x.real, x * x):
            h_before = h.copy()
            ref = scipy_fft.fft(h.astype(complex), norm="forward")
            assert coeffs_of(h).tobytes() == ref.tobytes()
            assert h.tobytes() == h_before.tobytes()


def test_length_mismatch_raises():
    g = Grid(2 ** 8, 10.0)
    with pytest.raises(ValueError):
        transform_forward(np.ones(17), g)


def test_parseval_direct_summation_oracle(grid_small, rng):
    f = random_real_field(grid_small, rng)
    s = f.samples()
    phys = np.sqrt(np.sum(s * s) * grid_small.dx)      # direct summation
    spec = np.sqrt(2 * grid_small.half_length * np.sum(np.abs(f.coeffs) ** 2))
    assert abs(phys - spec) < 1e-10 * phys


def test_derivative_eigenfunction():
    g = Grid(2 ** 10, 20.0)
    f = transform_forward(np.sin(np.pi * g.x / g.half_length), g)
    d = derivative(f, 1).samples()
    expect = (np.pi / g.half_length) * np.cos(np.pi * g.x / g.half_length)
    assert np.abs(d - expect).max() < 1e-10


def test_derivative_of_constant_is_zero():
    g = Grid(2 ** 8, 10.0)
    d = derivative(transform_forward(np.ones(g.n_points), g), 1)
    assert np.abs(d.samples()).max() < 1e-14


def test_second_derivative_vs_central_differences():
    g = Grid(2 ** 12, 40.0)
    gauss = np.exp(-g.x ** 2 / 4.0)
    d2 = derivative(transform_forward(gauss, g), 2).samples()

    def stencil(m):
        h = m * g.dx
        return (np.roll(gauss, -m) - 2 * gauss + np.roll(gauss, m)) / h ** 2

    fd = (4.0 * stencil(1) - stencil(2)) / 3.0    # Richardson-refined central FD
    assert np.abs(d2 - fd).max() < 1e-6


def test_mass_of_derivative_vanishes(grid_small, rng):
    f = random_real_field(grid_small, rng)
    assert abs(mass(derivative(f, 1))) < 1e-14


def test_mass_odd_function_zero():
    g = Grid(2 ** 10, 30.0)
    f = transform_forward(g.x * np.exp(-g.x ** 2), g)
    assert abs(mass(f)) < 1e-12


def test_mass_unit_gaussian():
    g = Grid(2 ** 12, 40.0)
    f = transform_forward(np.exp(-g.x ** 2 / 4.0) / np.sqrt(4 * np.pi), g)
    assert mass(f) == pytest.approx(1.0, abs=1e-8)


def test_weighted_norm_against_quadrature_oracle():
    g = Grid(2 ** 13, 40.0)
    f = transform_forward(np.exp(-g.x ** 2 / 4.0), g)
    oracle = np.sqrt(quad(lambda x: (x ** 2 * np.exp(-x ** 2 / 4.0)) ** 2,
                          -40, 40, epsabs=1e-13)[0])
    assert x2_weighted_l2(f) == pytest.approx(oracle, rel=1e-6)


def test_norm_report_contents(grid_small, rng):
    f = random_real_field(grid_small, rng)
    rep = norms(f)
    assert isinstance(rep, NormReport)
    # the L2 norms of the field and its first two derivatives (Nyquist mode
    # zeroed for the odd one) and the field's sup, bit for bit
    g = grid_small
    for m in (0, 1, 2):
        mult = (1j * g.k) ** m
        if m == 1:
            mult[g.nyquist_index] = 0.0
        s = np.fft.ifft(f.coeffs * mult if m else f.coeffs, norm="forward").real
        assert np.float64(rep.l2[m]).tobytes() == np.sqrt(np.sum(s * s) * g.dx).tobytes()
        if m == 0:
            assert np.float64(rep.sup).tobytes() == np.abs(s).max().tobytes()
    assert rep.sup_fourier >= 0


def test_hermitian_symmetrization(grid_small, rng):
    coeffs = rng.standard_normal(grid_small.n_points) \
        + 1j * rng.standard_normal(grid_small.n_points)
    c = SpectralField(grid_small, coeffs).symmetrized().coeffs
    assert np.abs(c[1:] - np.conj(c[1:][::-1])).max() < 1e-14
    assert np.abs(samples_of(c).imag).max() < 1e-12


def _spectra_to_symmetrize(n: int, rng) -> dict:
    """Random spectra, spectra with Nyquist content, and spectra whose
    mirrored pairs cancel exactly: c[n - m] and c[m] with equal imaginary
    parts, whose sums c[m] + conj(c[n - m]) then have a zero imaginary part
    of either sign, and pairs with an equal real part and opposite-signed
    zeros."""
    def draw():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    h = n // 2
    random = draw()
    nyquist = 1e-3 * draw()
    nyquist[h] = complex(0.7, -0.3)
    cancel = draw()
    cancel.imag[h + 1:] = cancel.imag[h - 1:0:-1]
    cancel.real[h + 1::2] = cancel.real[h - 1:0:-1][::2]
    zeros = np.zeros(n, dtype=complex)
    zeros.real[1::3] = -0.0
    zeros.imag[2::3] = -0.0
    zeros[h] = complex(-0.0, 2.0)
    return {"random": random, "nyquist": nyquist, "cancel": cancel, "zeros": zeros}


@pytest.mark.parametrize("n", [2, 4, 16, 2 ** 12])
def test_symmetrize_in_place_matches_the_formula_bytewise(n, rng):
    # the in-place symmetrization, and symmetrized() through it, give the
    # bytes of the out-of-place formula; building half the entries as the
    # conjugates of the others would flip the sign of the zeros that the
    # cancelling pairs leave
    grid = Grid(n, 10.0)
    for name, c in _spectra_to_symmetrize(n, rng).items():
        want = symmetrized_by_formula(c)
        copy = c.copy()
        got = symmetrize(copy)
        assert got is copy
        assert got.tobytes() == want.tobytes(), name
        field = SpectralField(grid, c)
        assert field.symmetrized().coeffs.tobytes() == want.tobytes(), name
        assert field.coeffs.tobytes() == c.tobytes()          # input untouched
    if n > 2:
        sym = symmetrized_by_formula(_spectra_to_symmetrize(n, rng)["cancel"])
        h = n // 2
        assert sym[h + 1:].tobytes() != np.conj(sym[h - 1:0:-1]).tobytes()


def test_fhat_matches_continuum_transform():
    g = Grid(2 ** 12, 50.0)
    f = transform_forward(np.exp(-g.x ** 2 / 4.0), g)
    # continuum transform of exp(-x^2/4) is 2 sqrt(pi) exp(-k^2)
    expected = 2 * np.sqrt(np.pi) * np.exp(-g.k ** 2)
    assert np.abs(f.fhat() - expected).max() < 1e-8
    back = field_from_continuum_fhat(g, expected)
    assert np.abs(back.samples() - np.exp(-g.x ** 2 / 4.0)).max() < 1e-10
