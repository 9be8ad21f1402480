"""Independent routes that the tests check the package against.

Each function here computes a quantity the package also computes, by a
different method (adaptive QUADPACK quadrature of f_n and of the bound
kernels, the 2x2 propagator matrix, an inverse transform by quadrature, a
time-stepped solution, the full-grid arrays that in-place package routines
replaced), or samples a package result in a form only the tests read.  None
of it runs in the ``ptails`` command.

The package loads only numpy.  The scipy modules these routes and the tests
use (``scipy.integrate`` for QUADPACK, ``scipy.interpolate`` for splines,
``scipy.linalg`` for the matrix exponential, ``scipy.special`` for ``erf``
and ``gamma``, ``scipy.fft`` for the transform pair the package replaced)
are loaded by the tests alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.integrate import quad

from ptails.heat import (HeatSourceSpec, _ascending_bins, _bin_integral,
                         _duhamel_integral, solve_inhom_modes, un_reference_hat)
from ptails.profiles import ExpansionModel
from ptails.semigroup import BRANCH_THRESHOLD, _cs_series, propagator_cs
from ptails.solver import frame_phases
from ptails.special import (_GRADE_LEVELS, _MASS_PANEL, _POLYS, ProfileSample,
                            _check_n, fn_value, hermite_interpolant, lcal_apply)
from ptails.spectral import (Grid, SpectralField, StateVector,
                             field_from_continuum_fhat)
from ptails.verify import BoundKernelParams

_GL16, _GW16 = np.polynomial.legendre.leggauss(16)
_GLN24, _GLW24 = np.polynomial.legendre.leggauss(24)


# --------------------------------------------------------------------------
# special functions


def fn_oracle(n: int, z: float, order: int = 0) -> float:
    """Independent adaptive-quadrature route (QUADPACK QAWS on the singular
    cell, plain adaptive quadrature beyond); scalar z."""
    beta = _check_n(n)
    P = np.polynomial.Polynomial(_POLYS[order])
    g = lambda xi: P(xi + z) * np.exp(-((xi + z) ** 2) / 4.0)
    i1, _ = quad(g, 0.0, 1.0, weight="alg", wvar=(beta - 1.0, 0.0),
                 epsabs=1e-13, epsrel=1e-13, limit=200)
    hi = max(1.0, -z + 16.0) + 16.0
    i2, _ = quad(lambda xi: g(xi) * xi ** (beta - 1.0), 1.0, hi,
                 epsabs=1e-13, epsrel=1e-13, limit=400)
    return i1 + i2


def fn_mass_per_panel(n: int, z_cut: float = 30.0) -> float:
    """``special.fn_mass`` with one ``fn_value`` call per 24-node panel."""
    edges = np.arange(-z_cut, z_cut + _MASS_PANEL / 2, _MASS_PANEL)
    tot = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        zz = (b - a) / 2 * _GLN24 + (b + a) / 2
        tot += (b - a) / 2 * float(fn_value(n, zz) @ _GLW24)
    tot += float(fn_value(n, -z_cut, order=-1) - fn_value(n, z_cut, order=-1))
    return tot


def fn_profile(n: int, z_grid: np.ndarray, orders: Iterable[int] = (0, 1, 2, 3),
               mirrored: bool = False) -> ProfileSample:
    """Sample f_n (or f_n(-z) with mirrored=True) and derivatives on a grid."""
    z_grid = np.asarray(z_grid, dtype=float)
    arg = -z_grid if mirrored else z_grid
    derivs = {}
    values = None
    for m in orders:
        v = fn_value(n, arg, order=m)
        if mirrored and m % 2 == 1:
            v = -v
        if m == 0:
            values = v
        else:
            derivs[m] = v
    if values is None:
        values = fn_value(n, arg)
    return ProfileSample(z_grid=z_grid, values=values, derivs=derivs)


def ode_residual(profile: ProfileSample, n: int) -> float:
    """sup over the sample grid of |L f| for the order-n operator."""
    if 1 not in profile.derivs or 2 not in profile.derivs:
        raise ValueError("profile must carry derivatives up to order 2")
    res = lcal_apply(profile.values, profile.derivs[1], profile.derivs[2],
                     profile.z_grid, n)
    return float(np.abs(res).max())


@dataclass(frozen=True)
class EnvelopeDescriptor:
    """rho_{p,q}(z) = (1+z^2)^{p/2} e^{z^2/4} for z >= 0, (1+z^2)^{q/2} for z <= 0.

    mirrored=True evaluates rho at -z (for profiles whose Gaussian side is
    the left one).
    """

    p: float
    q: float
    mirrored: bool = False

    def log_rho(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.mirrored:
            z = -z
        right = self.p / 2.0 * np.log1p(z * z) + z * z / 4.0
        left = self.q / 2.0 * np.log1p(z * z)
        return np.where(z >= 0, right, left)

    def rho(self, z: np.ndarray) -> np.ndarray:
        return np.exp(self.log_rho(z))


def envelope_check(z: np.ndarray, abs_values: np.ndarray | None,
                   envelope: EnvelopeDescriptor, c_max: float,
                   log_abs_values: np.ndarray | None = None) -> tuple[bool, float]:
    """Measured sup of rho(z) |v(z)| over the grid and whether it is <= c_max.

    Pass log_abs_values for quantities whose plain values underflow under the
    e^{z^2/4} weight; the product is then formed in log space.
    """
    if log_abs_values is None:
        log_abs_values = np.where(abs_values > 0, np.log(np.maximum(abs_values, 1e-300)), -np.inf)
    tot = envelope.log_rho(z) + log_abs_values
    measured = float(np.exp(tot.max()))
    return measured <= c_max, measured


def eval_Jn(n: int, z: float) -> complex:
    """J_n(z) = int_0^z e^{2is} s^{2^{-n}-1} ds for z >= 0.

    Singular cell by the same integration-by-parts regularization as f_n;
    beyond it, oscillation-resolving Gauss-Legendre panels of width <= pi/8.
    """
    beta = _check_n(n)
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z == 0.0:
        return 0.0 + 0.0j
    A = min(z, 2.0)
    b0, b1, b2 = beta, beta + 1.0, beta + 2.0
    hA = np.exp(2j * A)
    out = (hA - (2j * hA) * A / b1 + (-4.0 * hA) * A * A / (b1 * b2)) * A ** beta / b0
    edges = A * 2.0 ** (-np.arange(0.0, float(_GRADE_LEVELS)))
    acc = 0.0 + 0.0j
    for a, b in zip(edges[1:], edges[:-1]):
        s = (b - a) / 2 * _GL16 + (b + a) / 2
        acc += (b - a) / 2 * np.sum(_GW16 * s ** (beta + 2.0) * np.exp(2j * s))
    out -= acc * (-8j) / (b0 * b1 * b2)
    if z > A:
        nseg = int(np.ceil((z - A) / (np.pi / 8.0)))
        eg = np.linspace(A, z, nseg + 1)
        a = eg[:-1][:, None]
        b = eg[1:][:, None]
        s = (b - a) / 2 * _GL16[None, :] + (b + a) / 2
        out += complex(np.sum((b - a) / 2 * _GW16[None, :] * s ** (beta - 1.0) * np.exp(2j * s)))
    return complex(out)


def Jn_infinity_extrapolated(n: int, z_base: float = 400.0) -> complex:
    """Oracle for the J_n limit: half-period pair averages kill the leading
    oscillation, evaluation points are snapped to multiples of pi so the
    residual oscillatory envelope keeps one phase across doublings, and two
    Richardson stages remove the z^{beta-2} and z^{beta-3} corrections."""
    beta = _check_n(n)
    z0 = np.pi * round(z_base / np.pi)
    avg = lambda z: 0.5 * (eval_Jn(n, z) + eval_Jn(n, z + np.pi / 2.0))
    a = [avg(z) for z in (z0, 2.0 * z0, 4.0 * z0)]
    r1 = 2.0 ** (beta - 2.0)
    b = [(a[i + 1] - r1 * a[i]) / (1 - r1) for i in range(2)]
    r2 = 2.0 ** (beta - 3.0)
    return (b[1] - r2 * b[0]) / (1 - r2)


# --------------------------------------------------------------------------
# spectral


def symmetrized_by_formula(c: np.ndarray) -> np.ndarray:
    """Hermitian symmetrization into a new array, every entry
    0.5 (c[m] + conj(c[n - m])) formed from the untouched input: the
    out-of-place route that ``spectral.symmetrize`` replaced."""
    n = c.size
    sym = np.empty_like(c)
    sym[0] = c[0].real
    tail = sym[1:]
    np.conjugate(c[:0:-1], out=tail)
    np.add(c[1:], tail, out=tail)
    np.multiply(0.5, tail, out=tail)
    sym[n // 2] = sym[n // 2].real
    return sym


# --------------------------------------------------------------------------
# semigroup


def _cs_direct(k: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) including the damping by the closed form alone, trig for
    |k| < 1 and hyperbolic for |k| > 1, on a copy of each branch's k; at
    k = +-1 it is 0/0."""
    d2 = 1.0 - k * k
    C = np.empty_like(k)
    S = np.empty_like(k)
    trig = d2 > 0
    if np.any(trig):
        d = np.sqrt(d2[trig])
        x = k[trig] * t * d
        ek = np.exp(-k[trig] ** 2 * t)
        C[trig] = ek * np.cos(x)
        S[trig] = ek * np.sin(x) / d
    hyp = ~trig
    if np.any(hyp):
        dp = np.sqrt(-d2[hyp])
        x = k[hyp] * t * dp
        a = -k[hyp] ** 2 * t
        e1 = np.exp(a + x)
        e2 = np.exp(a - x)
        C[hyp] = 0.5 * (e1 + e2)
        S[hyp] = 0.5 * (e1 - e2) / dp
    return C, S


def propagator_cs_by_branches(k: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``semigroup.propagator_cs`` on 1-d k as two routes scattered by the
    branch window: ``_cs_series`` on a copy of the k inside it, the direct
    form on a copy of the k outside it, as the package computed it before
    one pass over three masks replaced this."""
    near = np.abs(1.0 - k * k) < BRANCH_THRESHOLD
    C = np.empty_like(k)
    S = np.empty_like(k)
    C[near], S[near] = _cs_series(k[near], t)
    C[~near], S[~near] = _cs_direct(k[~near], t)
    return C, S


def _entries_from_cs(k, C, S):
    return np.array([[C + k * S, 1j * S], [1j * S, C - k * S]])


def eval_eLt(k: float, t: float) -> np.ndarray:
    """2x2 complex matrix e^{L(k) t}."""
    C, S = propagator_cs(np.array([float(k)]), t)
    return _entries_from_cs(float(k), C[0], S[0])


def eval_eLt_direct(k: float, t: float) -> np.ndarray:
    """Direct (trig/hyperbolic) form regardless of the branch window; used
    to test continuity across the series seam."""
    C, S = _cs_direct(np.array([float(k)]), float(t))
    return _entries_from_cs(float(k), C[0], S[0])


def eval_eLt_series(k: float, t: float) -> np.ndarray:
    """Series form regardless of the branch window."""
    C, S = _cs_series(np.array([float(k)]), float(t))
    return _entries_from_cs(float(k), C[0], S[0])


def apply_eLt(state: StateVector, t: float) -> StateVector:
    """Apply the coupled propagator mode-wise to a physical-frame state."""
    if state.frame != "physical":
        raise ValueError("apply_eLt acts on physical-frame states")
    k = state.grid.k
    C, S = propagator_cs(k, t)
    a, b = state.first.coeffs, state.second.coeffs
    na = (C + k * S) * a + 1j * S * b
    nb = 1j * S * a + (C - k * S) * b
    return StateVector(
        SpectralField(state.grid, na), SpectralField(state.grid, nb), "physical"
    ).symmetrized()


# --------------------------------------------------------------------------
# heat


# the source shapes ``heat.make_source`` names, of which the package holds
# only the exact transforms
SOURCE_SHAPES = {
    "gaussian": lambda x: np.exp(-x * x / 4.0) / np.sqrt(4.0 * np.pi),
    "dgaussian": lambda x: -(x / 2.0) * np.exp(-x * x / 4.0) / np.sqrt(4.0 * np.pi),
}


def fhat_on_largest_grid(shape):
    """The sampled-shape transform on a fixed 2^17 points of [-480, 480),
    cubic Hermite interpolated in k on its exact k-slopes: the largest grid
    ``heat._numeric_fhat`` may choose, which it reaches only for shapes whose
    spectrum needs it."""
    g = Grid(2 ** 17, 480.0)
    phase = g.dx * np.exp(-1j * g.k * g.x[0])
    f = shape(g.x)
    order = np.argsort(g.k)
    return hermite_interpolant(g.k[order], (np.fft.fft(f) * phase)[order],
                               (np.fft.fft(-1j * g.x * f) * phase)[order])


def panel_edges_by_formula(t: float, k_hi: float, c_osc: float,
                            s_floor: float) -> list:
    """The panel edges of a magnitude bin written out in full: marching down
    from s = t under the oscillation, diffusion and algebraic-factor scales,
    clipped to the diffusion window e^{-k_hi^2 (t-s)} >= e^{-42}."""
    s_lo = max(s_floor, t - 42.0 / max(k_hi * k_hi, 1e-300))
    edges = [t]
    s = t
    while s > s_lo + 1e-14 * max(1.0, t):
        s -= min(1.2 * np.pi / max(abs(c_osc) * k_hi, 1e-300),
                 6.0 / max(k_hi * k_hi, 1e-300), 0.4 * (1.0 + s), s - s_lo)
        edges.append(s)
    edges[-1] = s_lo
    return edges[::-1]


def bin_integral_by_direct_exponentials(kb: np.ndarray, s_floor: float, t: float,
                                        power: float, c_osc: float,
                                        fhat_fn) -> np.ndarray:
    """int_{s_floor}^t of the Duhamel integrand for one magnitude bin, one
    panel at a time, with the damping e^{-k^2 (t-s)} and the phase
    e^{i c_osc k s} taken as two exponentials at every (mode, node): the
    direct form that ``heat._bin_integral`` factors, on the same panels."""
    edges = panel_edges_by_formula(t, kb[-1], c_osc, s_floor)
    acc = np.zeros(kb.size, dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        s = (b - a) / 2 * _GL16 + (b + a) / 2
        w = (b - a) / 2 * _GW16
        damp = np.exp(-kb[:, None] ** 2 * (t - s[None, :]))
        osc = np.exp(1j * c_osc * kb[:, None] * s[None, :])
        fh = fhat_fn(kb[:, None] * np.sqrt(1.0 + s[None, :]))
        acc += (damp * osc * ((1.0 + s) ** power)[None, :] * fh) @ w
    return acc


def duhamel_by_direct_exponentials(k: np.ndarray, t: float, power: float,
                                   c_osc: float, fhat_fn) -> np.ndarray:
    """The single-time Duhamel quadrature of ``heat._duhamel_integral`` with
    direct exponentials: magnitude bins of factor 1.35, each integrated over
    its diffusion window by ``bin_integral_by_direct_exponentials``; the
    modes k <= 0 are zero."""
    out = np.zeros(k.size, dtype=complex)
    pos = np.flatnonzero(k > 0)
    order = pos[np.argsort(k[pos])]
    sorted_k = k[order]
    i = 0
    while i < sorted_k.size:
        j = int(np.searchsorted(sorted_k, sorted_k[i] * 1.35, side="right"))
        out[order[i:j]] = bin_integral_by_direct_exponentials(
            sorted_k[i:j], 0.0, t, power, c_osc, fhat_fn)
        i = j
    return out


def duhamel_march_table(k: np.ndarray, times: np.ndarray, power: float,
                        c_osc: float, fhat_fn, k_cut: np.ndarray,
                        bin_integral=_bin_integral) -> np.ndarray:
    """The marched Duhamel rows of ``heat._duhamel_integral`` as one
    (times, modes) table, filled in full before it is returned: the
    materialised march that the streamed one replaced, on the same bins
    (``heat._ascending_bins``) and, by default, the same panel quadrature
    (``heat._bin_integral``)."""
    order, sorted_k, bins = _ascending_bins(k)
    rows = np.zeros((times.size, k.size), dtype=complex)
    acc = [np.zeros(j - i, dtype=complex) for i, j in bins]
    t_prev = 0.0
    for m, tm in enumerate(times):
        n_alive = int(np.searchsorted(sorted_k, k_cut[m], side="right"))
        for b, (i, j) in enumerate(bins):
            j = min(j, n_alive)
            if j <= i:
                break
            kb = sorted_k[i:j]
            acc[b] = (acc[b][:j - i] * np.exp(-kb * kb * (tm - t_prev))
                      + bin_integral(kb, t_prev, tm, power, c_osc, fhat_fn))
            rows[m, order[i:j]] = acc[b]
        t_prev = tm
    return rows


def solve_inhom(spec: HeatSourceSpec, grid: Grid, t_grid) -> list[SpectralField]:
    """Solution fields at the requested times on a periodic grid."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(np.diff(t_grid) < 0) or np.any(t_grid < 0):
        raise ValueError("t_grid must be nonnegative and nondecreasing")
    k = grid.k
    pos = k >= 0
    idx = np.arange(grid.n_points)
    conj_idx = (-idx) % grid.n_points
    out = []
    for t in t_grid:
        uhat = np.zeros(grid.n_points, dtype=complex)
        uhat[pos] = solve_inhom_modes(spec, k[pos], t)
        # negative modes by Hermitian symmetry (real field, uhat(-k) = conj)
        uhat = np.where(pos, uhat, np.conj(uhat[conj_idx]))
        out.append(field_from_continuum_fhat(grid, uhat).symmetrized())
    return out


def un_reference_by_inverse_quadrature(n: int, sigma: int, x: np.ndarray,
                                       t: float) -> np.ndarray:
    """Independent route to the limit profile: continuum inverse transform of
    its closed Fourier form by quadrature.  The |k|^{1-beta} cusp at k = 0 is
    removed by the substitution k = w^2; the Gaussian factor truncates the
    k range at k^2 (1+t) ~ 60."""
    x = np.asarray(x, dtype=float)
    wmax = np.sqrt(np.sqrt(60.0 / (1.0 + t)) + 1e-9)
    edges = np.linspace(0.0, wmax, 80 + 1)
    out = np.zeros_like(x)
    for a, b in zip(edges[:-1], edges[1:]):
        w = (b - a) / 2 * _GL16 + (b + a) / 2
        wt = (b - a) / 2 * _GW16
        k = w * w
        uh = un_reference_hat(n, sigma, k, t)
        ker = uh[None, :] * np.exp(1j * k[None, :] * x[:, None])
        out += (ker.real * (2.0 * w)[None, :]) @ wt
    return out / np.pi


def heat_ifrk4(grid: Grid, dt: float, n_steps: int, forcing) -> np.ndarray:
    """Samples at t = n_steps dt of u_t = u_xx + d/dx forcing(x, t), u(0) = 0,
    by integrating-factor RK4 on the grid with a 2/3-dealiased source: the
    diagonal heat propagator e^{-k^2 t} in place of the p-system symbol.
    The source does not depend on u, so the two midpoint stages coincide."""
    k = grid.k
    n = grid.n_points
    dealias = np.abs(k) <= 2.0 / 3.0 * np.abs(k).max()
    e_half = np.exp(-k * k * dt / 2.0)
    e_full = np.exp(-k * k * dt)

    def source(t):
        return 1j * k * np.fft.fft(forcing(grid.x, t)) * dealias / n

    u = np.zeros(n, dtype=complex)
    for i in range(n_steps):
        t = i * dt
        k1, k2, k4 = source(t), source(t + dt / 2), source(t + dt)
        u = e_full * u + dt / 6 * (e_full * k1 + 4 * e_half * k2 + k4)
    return np.fft.ifft(u).real * n


# --------------------------------------------------------------------------
# profiles and frames


def rn_envelope_constant(rn: ProfileSample, n: int, order: int = 0,
                         z_cap: float = 40.0) -> float:
    """Measured sup of e^{z^2/4} (1+z^2)^{-(1+m-2^{-n})/2} |d^m R_n| (the
    two-sided Gaussian weight of the remainder estimate), in log space so the
    weight cannot overflow; restricted to |z| <= z_cap where the product is
    resolvable in double precision."""
    beta = 0.5 ** n
    z = rn.z_grid
    msk = np.abs(z) <= z_cap
    v = np.abs((rn.derivs[order] if order else rn.values)[msk])
    logw = z[msk] ** 2 / 4.0 - (1.0 + order - beta) / 2.0 * np.log1p(z[msk] ** 2)
    logv = np.where(v > 0, np.log(np.maximum(v, 1e-300)), -np.inf)
    return float(np.exp((logw + logv).max()))


def build_expansion_terms(model: ExpansionModel, t: float, x: np.ndarray):
    """Sample (u0, u1, v0, v1) on physical points x at time t by rescaled
    cubic interpolation with envelope-based tail extrapolation."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    interp = model.interpolants()
    root = np.sqrt(1.0 + t)
    zz = np.asarray(x, dtype=float) / root
    u0 = interp["g0+"](zz) / root
    v0 = interp["g0-"](zz) / root
    u1 = np.zeros_like(zz)
    v1 = np.zeros_like(zz)
    for idx, (dp, dm) in enumerate(model.coeffs.d, start=1):
        pref = (1.0 + t) ** (-(1.0 - 0.5 ** (idx + 1)))
        if idx in model.gn_plus:
            u1 = u1 + dp * pref * interp[f"g{idx}+"](zz)
        if idx in model.gn_minus:
            v1 = v1 + dm * pref * interp[f"g{idx}-"](zz)
    return u0, u1, v0, v1


def from_characteristic_frame(state: StateVector, t: float) -> StateVector:
    """Inverse frame change: a = (Tu + T^{-1}v)/2, b = (Tu - T^{-1}v)/2."""
    if state.frame != "characteristic":
        raise ValueError("expected a characteristic-frame state")
    k = state.grid.k
    u, v = state.first.coeffs, state.second.coeffs
    tu = np.exp(1j * k * t) * u
    tv = np.exp(-1j * k * t) * v
    a = 0.5 * (tu + tv)
    b = 0.5 * (tu - tv)
    return StateVector(SpectralField(state.grid, a).symmetrized(),
                       SpectralField(state.grid, b).symmetrized(),
                       "physical")


# --------------------------------------------------------------------------
# bound kernels


def bound_kernel_B0_quad(q: float, t: float) -> float:
    """``verify.bound_kernel_B0`` by adaptive QUADPACK quadrature after the
    same square-root substitution."""
    if t == 0.0:
        return 0.0
    g = lambda w: 2.0 * np.exp(-w * w / 8.0) * (1.0 + t - w * w) ** (-q)
    val, _ = quad(g, 0.0, np.sqrt(t), epsabs=1e-12, epsrel=1e-11, limit=200)
    return float(val)


def bound_kernel_B_quad(params: BoundKernelParams, t: float) -> float:
    """``verify.bound_kernel_B`` by adaptive QUADPACK quadrature, with the
    (t-s)^{-p2} weight of the second piece taken by the QAWS algebraic
    weight."""
    if t == 0.0:
        return 0.0
    p = params
    g1 = lambda s: (1.0 + s) ** (-p.q1) * (t - s) ** (-p.p1) * (1.0 + t - s) ** (-p.r1)
    i1, _ = quad(g1, 0.0, t / 2.0, epsabs=1e-12, epsrel=1e-11, limit=200)
    g2 = lambda s: ((1.0 + s) ** (-p.q2) * np.log(2.0 + s) ** p.r3
                    * (1.0 + t - s) ** (-p.r2))
    if p.p2 > 0:
        i2, _ = quad(g2, t / 2.0, t, weight="alg", wvar=(0.0, -p.p2),
                     epsabs=1e-12, epsrel=1e-11, limit=200)
    else:
        i2, _ = quad(g2, t / 2.0, t, epsabs=1e-12, epsrel=1e-11, limit=200)
    return float(i1 + i2)


# --------------------------------------------------------------------------
# remainder pipeline


def full_remainder_norms(snapshots, times, model: ExpansionModel, side: str,
                         window: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(fit-window times, N0 norms) of one side with the full subtraction,
    from a run's collected snapshots and their times, each norm taken of the
    whole remainder field r_lin - (w - d_1 G) with the d_1 the pipeline
    fits: the direct evaluation that the pipeline replaces by kept inner
    products."""
    from ptails import verify
    from ptails.spectral import samples_of, transform_forward

    grid = snapshots[0].grid
    x, dx = grid.x, grid.dx
    interp = model.interpolants()
    g0, g1 = interp[f"g0{side}"], interp[f"g1{side}"]
    g0_hat = {s: transform_forward(interp[f"g0{s}"](x), grid).coeffs for s in "+-"}
    t_lo, t_hi = window
    picked = [(s, t) for s, t in zip(snapshots, times)
              if t_lo <= t <= t_hi and t > 0]
    times = np.array([t for _, t in picked])
    fields = []
    for snap, t in picked:
        root = np.sqrt(1.0 + t)
        u = verify._char_component(snap, t, side).samples()
        lin = verify._linear_reference_coeffs(snapshots[0], t, g0_hat,
                                              frame_phases(grid.k, t))[side]
        r_lin = u - g0(x / root) / root - samples_of(lin).real
        fields.append((r_lin, (1.0 + t) ** -0.75 * g1(x / root)))
    d1, _ = verify.fit_d1(times, [float(r @ G) / float(G @ G) for r, G in fields])
    sweep = verify._transient_sweep(*verify._transient_source_fhat(model, side),
                                    grid, times)
    n0 = [np.sqrt(np.sum((r - (samples_of(w).real - d1 * G)) ** 2) * dx)
          for (r, G), w in zip(fields, sweep)]
    return times, np.array(n0)


def linear_reference_three_tables(initial: StateVector, t: float, g0_hat: dict,
                                  phases: tuple) -> dict:
    """``verify._linear_reference_coeffs`` as plain expressions, one new array
    per operation, on the three complex propagator tables (P, Q, R) formed
    from the (C, S) of ``propagator_cs_by_branches``: per side,
    phase ((P +- Q) a0 + (Q +- R) b0) - e^{-k^2 t} g0_hat."""
    k = initial.grid.k
    a0, b0 = initial.first.coeffs, initial.second.coeffs
    C, S = propagator_cs_by_branches(k, t)
    P, Q, R = (C + k * S).astype(complex), 1j * S, (C - k * S).astype(complex)
    heat_factor = np.exp(-k * k * t)
    out = {}
    for side, combine, phase in (("+", np.add, phases[0]),
                                 ("-", np.subtract, phases[1])):
        row = combine(P, Q) * a0 + combine(Q, R) * b0
        out[side] = phase * row - heat_factor * g0_hat[side]
    return out


def transient_sweep_full_grid(coeff: float, c_osc: float, qhat, grid: Grid, times):
    """The rows of ``verify._transient_sweep`` built on full-grid index
    arrays: the modes picked by a mask over ``grid.k``, and each mode k < 0
    set from its mirror through a (-j) mod n index array."""
    n = grid.n_points
    k = grid.k
    kcut = 8.5 / np.sqrt(1.0 + np.asarray(times)) + 0.3
    sel = (k >= 0) & (k <= kcut[0])
    ks = k[sel]
    rows = _duhamel_integral(ks, times, -0.5, c_osc, qhat, k_cut=kcut)
    conj_idx = (-np.arange(n)) % n
    neg = k < 0
    for row in rows:
        what = np.zeros(n, dtype=complex)
        what[sel] = coeff * 1j * ks * row
        what[neg] = np.conj(what[conj_idx][neg])
        yield field_from_continuum_fhat(grid, what).coeffs
