"""Model inhomogeneous heat equations and the emergence of long-tail profiles.

Solves  u_t = u_xx + d/dx[(1+t)^{2^{-n} - 3/2} f((x - 2 sigma t)/sqrt(1+t))]
with u(x, 0) = 0 by the explicit per-mode Duhamel integral

    uhat(k, t) = ik int_0^t e^{-k^2 (t-s)} e^{-2 i k sigma s}
                 (1+s)^{2^{-n} - 1} fhat(k sqrt(1+s)) ds

(Fourier convention fhat(k) = int f e^{-ikx} dx).  The large-time limit is
M(f) times the universal profile

    u_n(x, t) = sigma (1+t)^{-(1 - 2^{-(n+1)})} (2^{-1-2^{-n}}/sqrt(4 pi))
                f_n(-sigma x / sqrt(1+t)),

whose transform is  ik e^{-k^2(1+t)} |k|^{-2^{-n}}
(theta(-sigma k) J_inf + theta(sigma k) conj(J_inf)) in this convention.

The s-quadrature uses panels sized by three local scales: the oscillation
wavelength, the diffusion window 1/k^2, and the algebraic factor's 1+s;
modes are processed in |k| bins sharing one panel set.  At a panel's node
s = mid + half x the exponential e^{-k^2 (t-s) + i c k s} is the product of
a panel factor e^{-k^2 (t-mid) + i c k mid}, one per (panel, mode), and a
width factor e^{(k^2 + i c k) half x}, one per distinct half-width, which a
run of equal-width panels shares; (1+s)^power is folded into the node
weights.  The panels, and so the window the quadrature integrates, are
those of the direct form.  The diffusion step keeps half <= 3/k_hi^2, so
|k^2 half x| <= 3 and neither factor can overflow.  A bin's panels are
evaluated as one array expression per chunk of panels, so its temporaries
stay below 8,192 (mode, node) values (about 1 MB in all) however many
panels it has, unless one panel alone has more; each panel's node sum is
still taken on its own and the sums are added in panel order, which gives
the same bits as one panel at a time, whatever the chunk.

For an increasing series of times the integral is marched instead of
restarted from s = 0: the value at t_m is the value at t_{m-1} damped by
e^{-k^2 (t_m - t_{m-1})} plus the quadrature over [t_{m-1}, t_m] alone.  The
march is an iterator that yields each time's row as it is computed, so a
caller that consumes the rows in turn never holds the times-by-modes table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import special
from .spectral import Grid, coeffs_of

__all__ = [
    "HeatSourceSpec",
    "solve_inhom_modes",
    "un_reference_hat",
    "convergence_check",
    "pointwise_bound_constant",
    "ConvergenceReport",
]

_ALLOWED_SIGMA = (-2, -1, 0, 1, 2)
# grid of the sampled-shape transform (k step pi/480) and its sizing rule
_FHAT_HALF_LENGTH = 480.0
_FHAT_MIN_POINTS = 2 ** 12
_FHAT_POINTS = 2 ** 17
_FHAT_TAIL = 1e-15
_WINDOW_CAP = 42.0     # quadrature stops where e^{-k^2 (t-s)} < e^{-42}
_NORM_PANELS = 64      # k panels of the continuum remainder norms
_CHUNK = 1 << 13       # (mode, node) integrand values evaluated at once


@dataclass
class HeatSourceSpec:
    """Source specification: order n, translation index sigma and the
    exact transform fhat of the source's profile."""

    n: int
    sigma: int
    fhat: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.sigma not in _ALLOWED_SIGMA:
            raise ValueError(f"sigma must be one of {_ALLOWED_SIGMA}")
        if not (special.N_MIN <= self.n <= special.N_MAX):
            raise ValueError("n out of range")
        self._mass = float(np.real(np.atleast_1d(self.fhat(np.zeros(1)))[0]))

    @property
    def beta(self) -> float:
        return 0.5 ** self.n

    @property
    def mass(self) -> float:
        return self._mass


def gaussian_fhat():
    return lambda k: np.exp(-k * k)


def dgaussian_fhat():
    return lambda k: 1j * k * np.exp(-k * k)


def make_source(n: int, sigma: int, shape_name: str) -> HeatSourceSpec:
    """The source of a named shape through its exact transform: "gaussian"
    is f(x) = e^{-x^2/4} / sqrt(4 pi), of unit mass, and "dgaussian" is f'."""
    if shape_name == "gaussian":
        return HeatSourceSpec(n, sigma, gaussian_fhat())
    if shape_name == "dgaussian":
        return HeatSourceSpec(n, sigma, dgaussian_fhat())
    raise ValueError(f"unknown shape {shape_name!r}")


def _numeric_fhat(shape: Callable):
    """Transform of a sampled shape, cubic Hermite interpolated in k on its
    values and exact k-slopes (the transform of -i x f), zero beyond the band.

    The samples cover [-480, 480), so the k step is pi/480 whatever the point
    count; the interpolation error stays below ~1e-10 for unit-scale shapes.
    The point count starts at 2^12 and doubles while the largest |fhat| in
    the top half of the band (|k| above half the Nyquist wavenumber) exceeds
    1e-15 of the peak, up to _FHAT_POINTS.  Below that level the cut-off band
    and its aliasing are lost in rounding, so the interpolant matches the one
    on the largest grid."""
    n = _FHAT_MIN_POINTS
    while True:
        g = Grid(n, _FHAT_HALF_LENGTH)
        f = shape(g.x)
        # fhat(k) = dx sum_j f_j e^{-ik x_j}; n is a power of two, so
        # n * coeffs_of(f) is the bare FFT sum to the bit
        phase = g.dx * np.exp(-1j * g.k * g.x[0])
        fh = coeffs_of(f) * n * phase
        size = np.abs(fh)
        top = np.abs(g.k) > np.pi / (2.0 * g.dx)
        if n >= _FHAT_POINTS or size[top].max() <= _FHAT_TAIL * size.max():
            break
        n *= 2
    dfh = coeffs_of(-1j * g.x * f) * n * phase
    order = np.argsort(g.k)
    return special.hermite_interpolant(g.k[order], fh[order], dfh[order])


def _panel_edges(t: float, k_hi: float, power_scale: float, osc_rate: float,
                 s_floor: float) -> np.ndarray:
    """Panel boundaries marching down from s = t to s_floor, or to the lower
    end of the diffusion window if that is later, with local step bounded by
    the oscillation, diffusion, and algebraic-factor scales."""
    s_lo = max(s_floor, t - _WINDOW_CAP / max(k_hi * k_hi, 1e-300))
    osc_step = 1.2 * np.pi / max(osc_rate, 1e-300)
    diffusion_step = 6.0 / max(k_hi * k_hi, 1e-300)
    edges = [t]
    s = t
    while s > s_lo + 1e-14 * max(1.0, t):
        s -= min(osc_step, diffusion_step, power_scale * (1.0 + s), s - s_lo)
        edges.append(s)
    edges[-1] = s_lo
    return np.array(edges[::-1])


def _ascending_bins(k: np.ndarray):
    """Indices of the modes k > 0 in ascending order, their values, and the
    index ranges grouping them by magnitude (factor 1.35); each range shares
    one panel set built for its top mode."""
    pos = np.flatnonzero(k > 0)
    order = pos[np.argsort(k[pos])]
    sorted_k = k[order]
    bins = []
    i = 0
    while i < sorted_k.size:
        j = int(np.searchsorted(sorted_k, sorted_k[i] * 1.35, side="right"))
        bins.append((i, j))
        i = j
    return order, sorted_k, bins


def _bin_integral(kb: np.ndarray, s_floor: float, t: float, power: float,
                  c_osc: float, fhat_fn: Callable) -> np.ndarray:
    """int_{s_floor}^t of the Duhamel integrand for one magnitude bin.

    The panels' integrands are evaluated a chunk of panels at a time, at most
    _CHUNK (mode, node) values per chunk unless one panel alone has more.
    The width factors e^{(k^2 + i c k) half x_j} are formed once per distinct
    half-width of the chunk; half <= 3/k_hi^2 (the diffusion step) keeps
    the real parts of their exponents within [-3, 3].  The panel factor
    e^{-k^2 (t-mid) + i c k mid} multiplies each panel's 16-node sum; its
    real part is formed as -k^2 (t - mid), which does not cancel where k^2 t
    is large.  Each panel's sum is its own matrix-vector product and the
    sums are added in panel order, so the result does not depend on the
    chunk.
    """
    k_hi = kb[-1]
    edges = _panel_edges(t, k_hi, 0.4, abs(c_osc) * k_hi, s_floor)
    s, w = special.panel_rule(edges[:-1], edges[1:], 16)        # (panels, 16)
    x = special._unit_rule(16)[0]
    half = (edges[1:] - edges[:-1]) / 2                         # as panel_rule
    mid = (edges[1:] + edges[:-1]) / 2
    aw = ((1.0 + s) ** power * w)[:, :, None]                   # (panels, 16, 1)
    root = np.sqrt(1.0 + s)[:, None, :]
    kk = kb[None, :, None]                                      # (1, modes, 1)
    rate = (kb * kb + 1j * c_osc * kb)[None, :, None]           # k^2 + i c k
    neg_k2, ck = -kb * kb, c_osc * kb
    per_chunk = max(1, _CHUNK // (kb.size * s.shape[1]))
    acc = np.zeros(kb.size, dtype=complex)
    for p in range(0, s.shape[0], per_chunk):
        hc = half[p:p + per_chunk]
        mc = mid[p:p + per_chunk, None]
        # the chunk's distinct half-widths, ascending
        hs = np.sort(hc)
        hs = hs[np.concatenate(([True], hs[1:] != hs[:-1]))]
        fh = fhat_fn(kk * root[p:p + per_chunk])
        e_off = np.exp(rate * (hs[:, None, None] * x))          # (widths, modes, 16)
        sums = np.matmul(fh * e_off[np.searchsorted(hs, hc)], aw[p:p + per_chunk])
        del fh, e_off       # not held while the next chunk is evaluated
        e_mid = np.empty((mc.shape[0], kb.size), dtype=complex)
        e_mid.real = neg_k2 * (t - mc)
        e_mid.imag = ck * mc
        np.exp(e_mid, out=e_mid)                                # (panels, modes)
        # complex products out of place: numpy rounds an in-place product
        # of one element differently from one of several, which would tie
        # the bits to the chunk
        for row in e_mid * sums[:, :, 0]:
            acc += row
    return acc


def _duhamel_integral(k: np.ndarray, t, power: float, c_osc: float,
                      fhat_fn: Callable, k_cut=None):
    """int_0^t e^{-k^2(t-s)} e^{i c_osc k s} (1+s)^power fhat(k sqrt(1+s)) ds
    for an array of k >= 0, binned by magnitude so panels are shared.

    A nondecreasing array of times returns an iterator of one row per time,
    each a new array, marched as it is drawn: the row for t_m is the row for
    t_{m-1} damped by e^{-k^2 (t_m - t_{m-1})} plus the quadrature over
    [t_{m-1}, t_m] on the same panel rule clipped at t_{m-1}.  So the caller
    holds one row at a time, and the quadrature runs inside its loop.  A
    scalar t is the one-time series and returns its one row, one value per
    mode.  k_cut, one nonincreasing value per time, drops a mode from the
    first time it exceeds the cut; its entries are zero from then on.  The
    arguments are checked when the call is made, not when the first row is
    drawn.
    """
    k = np.asarray(k, dtype=float)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1 or np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be a nonnegative, nondecreasing 1-d array")
    if k_cut is None:
        cut = np.full(times.size, np.inf)
    else:
        cut = np.asarray(k_cut, dtype=float)
        if cut.shape != times.shape or np.any(np.diff(cut) > 0):
            raise ValueError("k_cut must hold one nonincreasing value per time")
    rows = _march(k, times, cut, power, c_osc, fhat_fn)
    return next(rows) if np.ndim(t) == 0 else rows


def _march(k: np.ndarray, times: np.ndarray, cut: np.ndarray, power: float,
           c_osc: float, fhat_fn: Callable):
    """The rows of ``_duhamel_integral``, yielded one time at a time."""
    order, sorted_k, bins = _ascending_bins(k)
    acc = [np.zeros(j - i, dtype=complex) for i, j in bins]
    t_prev = 0.0
    for tm, cm in zip(times, cut):
        row = np.zeros(k.size, dtype=complex)
        n_alive = int(np.searchsorted(sorted_k, cm, side="right"))
        for b, (i, j) in enumerate(bins):
            j = min(j, n_alive)
            if j <= i:
                break
            kb = sorted_k[i:j]
            acc[b] = (acc[b][:j - i] * np.exp(-kb * kb * (tm - t_prev))
                      + _bin_integral(kb, t_prev, tm, power, c_osc, fhat_fn))
            row[order[i:j]] = acc[b]
        t_prev = tm
        yield row


def solve_inhom_modes(spec: HeatSourceSpec, k: np.ndarray, t: float) -> np.ndarray:
    """uhat(k, t) on arbitrary k >= 0 (use Hermitian symmetry for k < 0)."""
    integral = _duhamel_integral(k, t, spec.beta - 1.0, -2.0 * spec.sigma, spec.fhat)
    return 1j * np.asarray(k, dtype=float) * integral


def un_reference_hat(n: int, sigma: int, k: np.ndarray, t: float) -> np.ndarray:
    """Transform of the limit profile:
    ik e^{-k^2(1+t)} |k|^{-beta} (theta(-sigma k) J_inf + theta(sigma k) conj(J_inf))."""
    if sigma not in (-1, 1):
        raise ValueError("the reference profile is defined for sigma = +-1")
    beta = 0.5 ** n
    jinf = special.Jn_infinity(n)
    k = np.asarray(k, dtype=float)
    out = np.zeros(k.size, dtype=complex)
    nz = k != 0
    kk = k[nz]
    side = np.where(sigma * kk < 0, jinf, np.conj(jinf))
    out[nz] = 1j * kk * np.exp(-kk * kk * (1.0 + t)) * np.abs(kk) ** (-beta) * side
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    times: np.ndarray
    remainder_l2: np.ndarray          # ||u - M(f) u_n||_2
    remainder_dl2: np.ndarray         # ||D(u - M(f) u_n)||_2
    weighted_l2: np.ndarray           # (1+t)^{3/4}/ln(2+t) ||u - M(f) u_n||_2
    weighted_dl2: np.ndarray          # (1+t)^{5/4}/ln(2+t) ||D(u - M(f) u_n)||_2
    weighted_sup: float               # sup of weighted_l2 over the times
    weighted_sup_d: float
    stabilized: bool                  # running sup grew < 5% over the last decade
    slope_l2: float
    measured_C: float                 # pointwise (5.11)-style constant

    @property
    def passed(self) -> bool:
        return self.stabilized and np.isfinite(self.weighted_sup)


def _remainder(spec: HeatSourceSpec, k: np.ndarray, t: float) -> np.ndarray:
    """|uhat - M uhat_n| on the modes k >= 0 at time t."""
    uh = solve_inhom_modes(spec, k, t)
    unh = spec.mass * un_reference_hat(spec.n, spec.sigma, k, t)
    return np.abs(uh - unh)


def _rescaled_excess(k: np.ndarray, diff: np.ndarray, t: float) -> float:
    """max over k > 0 of (diff e^{k^2 (1+t)} - t^{-1/2}) / k: the smallest C
    with diff <= (C k + t^{-1/2}) e^{-k^2 (1+t)} on these modes, where diff
    is |uhat - M uhat_n|."""
    resc = diff * np.exp(k ** 2 * (1.0 + t))
    return float(np.max((resc - t ** -0.5) / k))


def _continuum_norms(spec: HeatSourceSpec, t: float):
    """(||u - M u_n||_2, ||D(...)||_2, measured C) by continuum-k quadrature."""
    kmax = 8.0 / np.sqrt(1.0 + t) + 0.5
    k_resc_max = np.sqrt(500.0 / (1.0 + t))   # beyond this the weight overflows
    edges = np.linspace(0.0, kmax, _NORM_PANELS + 1)
    nodes, weights = special.panel_rule(edges[:-1], edges[1:], 16)
    unh = spec.mass * un_reference_hat(spec.n, spec.sigma, nodes.ravel(), t)
    tot0 = tot1 = cmax = 0.0
    for kk, ww, un in zip(nodes, weights, unh.reshape(nodes.shape)):
        diff = np.abs(solve_inhom_modes(spec, kk, t) - un)
        tot0 += float(np.sum(ww * diff ** 2))
        tot1 += float(np.sum(ww * (kk * diff) ** 2))
        if t > 0:
            sel = kk <= k_resc_max
            if np.any(sel):
                cmax = max(cmax, _rescaled_excess(kk[sel], diff[sel], t))
    # |uhat(-k)| = |uhat(k)|: integral over R is twice the half line, /(2 pi)
    return np.sqrt(tot0 / np.pi), np.sqrt(tot1 / np.pi), max(cmax, 0.0)


def convergence_check(spec: HeatSourceSpec, t_grid) -> ConvergenceReport:
    """Weighted remainder sups of the limit-profile approximation over a
    time grid; pass requires the running sup to stabilize (the last decade
    contributes < 5% growth).  The grid must be strictly increasing and
    reach below its last decade, or there is no earlier sup to compare."""
    if abs(spec.sigma) != 1:
        raise ValueError("convergence_check requires |sigma| = 1")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("convergence_check needs a strictly increasing time grid")
    in_last_decade = t_grid >= t_grid[-1] / 10.0
    if in_last_decade.all():
        raise ValueError(f"no time of the grid lies before its last decade "
                         f"[{t_grid[-1] / 10.0:g}, {t_grid[-1]:g}], so stabilisation "
                         f"cannot be judged")
    r0 = np.empty(t_grid.size)
    r1 = np.empty(t_grid.size)
    cc = 0.0
    for i, t in enumerate(t_grid):
        r0[i], r1[i], c = _continuum_norms(spec, t)
        cc = max(cc, c)
    weighted = (1.0 + t_grid) ** 0.75 / np.log(2.0 + t_grid) * r0
    weighted_d = (1.0 + t_grid) ** 1.25 / np.log(2.0 + t_grid) * r1
    sup0 = np.maximum.accumulate(weighted)
    stabilized = bool(sup0[-1] <= sup0[~in_last_decade].max() * 1.05)
    msk = t_grid >= max(t_grid[0], 1.0)
    slope, _ = special.loglog_fit(1.0 + t_grid[msk], r0[msk])
    return ConvergenceReport(
        times=t_grid, remainder_l2=r0, remainder_dl2=r1,
        weighted_l2=weighted, weighted_dl2=weighted_d,
        weighted_sup=float(sup0[-1]), weighted_sup_d=float(weighted_d.max()),
        stabilized=stabilized, slope_l2=slope, measured_C=float(cc),
    )


def pointwise_bound_constant(spec: HeatSourceSpec, k_grid, t_grid) -> float:
    """Measured C(n) in |uhat - M uhat_n| <= (C|k| + t^{-1/2}) e^{-k^2(1+t)}.

    Modes with k^2 (1+t) > 500 are excluded: the rescaling weight overflows
    there while the rescaled quantity itself is inf * 0 in double precision.
    """
    cmax = 0.0
    k_grid = np.asarray(k_grid, dtype=float)
    k_grid = k_grid[k_grid > 0]
    for t in np.asarray(t_grid, dtype=float):
        if t <= 0:
            continue
        kk = k_grid[k_grid ** 2 * (1.0 + t) <= 500.0]
        if kk.size == 0:
            continue
        cmax = max(cmax, _rescaled_excess(kk, _remainder(spec, kk, t), t))
    return max(cmax, 0.0)
