"""Profile special functions with mixed Gaussian/algebraic tails.

The central object is the one-parameter family

    f_n(z) = int_0^inf (xi + z) e^{-(xi+z)^2/4} xi^{2^{-n} - 1} dxi,

the self-similar heat profile with decay exponent 1 - 2^{-(n+1)}: it solves
f'' + (z/2) f' + (1 - 2^{-(n+1)}) f = 0, has zero total mass, a modified
Gaussian tail as z -> +inf and an algebraic |z|^{-2 + 2^{-n}} tail as
z -> -inf.

Evaluation strategy: the endpoint singularity xi^{beta - 1} on [0, A] is
removed by three exact integrations by parts (the boundary terms are
Gauss-Hermite-type closed forms; the remaining integrand carries xi^{beta+2}
and is handled by Gauss-Legendre panels geometrically graded toward 0).
The scheme is uniform in n: no loss of accuracy as beta = 2^{-n} -> 0.
Derivatives up to order 3 come from differentiating under the integral;
order -1 is the antiderivative that vanishes at +inf, used for exact
truncated-tail mass corrections.

The independent scipy QUADPACK route (QAWS algebraic weight on the singular
cell) that cross-checks f_n lives with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

__all__ = [
    "erf",
    "fn_value",
    "fn_mass",
    "fn_tail_mass",
    "panel_rule",
    "loglog_fit",
    "lcal_apply",
    "hermite_interpolant",
    "Jn_infinity",
    "tail_exponent_fit",
    "ProfileSample",
]

N_MIN, N_MAX = 1, 20
_Z_MAX = 300.0

# P_m with g_m(w) = P_m(w) e^{-w^2/4}, g_{m+1} = g_m'; P_{-1} = -2 so that
# g_{-1}' = g_0 = w e^{-w^2/4}.
_POLYS: dict[int, np.polynomial.Polynomial] = {-1: np.polynomial.Polynomial([-2.0])}
_POLYS[0] = np.polynomial.Polynomial([0.0, 1.0])
for _m in range(0, 8):
    _POLYS[_m + 1] = _POLYS[_m].deriv() - np.polynomial.Polynomial([0.0, 0.5]) * _POLYS[_m]

_SING_CELL = 2.0          # [0, A] carries the singular weight
_GRADE_LEVELS = 22        # geometric panels down to A 2^-22 ~ 5e-7
_MASS_PANEL = 0.5         # panel width of the fn_mass quadrature


_erf = np.frompyfunc(math.erf, 1, 1)


def erf(x):
    """The error function elementwise: the C library's erf through
    ``math.erf`` (a float for a 0-d or scalar argument).  Its arguments are
    profile grids of a few thousand points, so the Python-level loop costs
    little (about 20 ms at 2^17 points)."""
    return np.asarray(_erf(x), dtype=float)[()]


@cache
def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def panel_rule(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on each panel [a_i, b_i]: nodes
    (b - a)/2 x + (b + a)/2 and weights (b - a)/2 w, of shape
    ``np.shape(a) + (n,)``, one row per panel."""
    x, w = _unit_rule(n)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = (b - a) / 2
    return half * x + (b + a) / 2, half * w


def loglog_fit(x, y) -> tuple[float, float]:
    """Least-squares slope of log|y| against log|x|, and the line's rms residual."""
    lx = np.log(np.abs(x))
    ly = np.log(np.abs(y))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))


def _check_n(n: int) -> float:
    if not (N_MIN <= n <= N_MAX):
        raise ValueError(f"n must lie in [{N_MIN}, {N_MAX}], got {n}")
    return 0.5 ** n


def _kern(xi, z, scaled):
    """The node-by-point grid w = xi + z and its Gaussian factor, which every
    derivative order's polynomial multiplies."""
    w = xi[None, :] + z[:, None]
    if scaled:
        expo = -xi[None, :] ** 2 / 4.0 - xi[None, :] * z[:, None] / 2.0
    else:
        expo = -w * w / 4.0
    return w, np.exp(expo)


def fn_value(n: int, z, order: int | tuple[int, ...] = 0,
             scaled: bool = False) -> np.ndarray:
    """f_n^{(order)}(z), vectorized over z.

    order = -1 gives the antiderivative F with F' = f_n and F(+inf) = 0.
    A tuple of orders returns one row per order, each equal bit for bit to
    the single-order call: the exponential of every quadrature panel is
    computed once and shared by the orders' polynomials.
    scaled=True returns e^{z^2/4} f_n^{(order)}(z) without overflow (z >= 0
    intended), for weighted-sup (envelope) measurements.

    Accuracy: absolute error at the quadrature-roundoff level, which is
    ~2^n * 1e-16; for n <= 8 this is below 1e-10 on |z| <= 30, beyond which
    the relative error stays ~1e-12.
    """
    beta = _check_n(n)
    orders = order if isinstance(order, tuple) else (order,)
    if not orders or not all(-1 <= m <= 4 for m in orders):
        raise ValueError("derivative order must lie in [-1, 4]")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(np.abs(z) > _Z_MAX):
        raise ValueError(f"|z| must be <= {_Z_MAX}")
    A = _SING_CELL
    b0, b1, b2 = beta, beta + 1.0, beta + 2.0
    # Boundary terms of the three integrations by parts at xi = A.
    wA = A + z
    eA = np.exp(-A * A / 4.0 - A * z / 2.0) if scaled else np.exp(-wA * wA / 4.0)
    out = np.array([
        (_POLYS[m](wA) - _POLYS[m + 1](wA) * A / b1
         + _POLYS[m + 2](wA) * A * A / (b1 * b2)) * eA * A ** beta / b0
        for m in orders])
    # Remaining smooth-weight integral int_0^A P3-kernel xi^{beta+2}.
    edges = A * 2.0 ** (-np.arange(0.0, float(_GRADE_LEVELS)))
    acc = np.zeros_like(out)
    for xi, ww in zip(*panel_rule(edges[1:], edges[:-1], 24)):
        ww = ww * xi ** (beta + 2.0)
        w, e = _kern(xi, z, scaled)
        for row, m in zip(acc, orders):
            row += (_POLYS[m + 3](w) * e) @ ww
    out -= acc / (b0 * b1 * b2)
    # Regular region [A, ximax]; the Gaussian factor kills everything beyond.
    ximax = max(A, float(-z.min()) + 16.0) + 16.0
    edges = np.arange(A, ximax + 2.0, 2.0)
    for xi, ww in zip(*panel_rule(edges[:-1], edges[1:], 24)):
        ww = ww * xi ** (beta - 1.0)
        w, e = _kern(xi, z, scaled)
        for row, m in zip(out, orders):
            row += (_POLYS[m](w) * e) @ ww
    if scalar:
        out = out[:, 0]
    return out if isinstance(order, tuple) else out[0]


def fn_mass(n: int, z_cut: float = 30.0) -> float:
    """Numerical total mass of f_n: trapezoid-free panel quadrature on
    [-z_cut, z_cut] plus the exact algebraic/Gaussian tail corrections
    F(-z_cut) - F(z_cut) from the antiderivative.  Zero analytically."""
    edges = np.arange(-z_cut, z_cut + _MASS_PANEL / 2, _MASS_PANEL)
    zz, _ = panel_rule(edges[:-1], edges[1:], 24)              # (panels, 24)
    # one evaluation of every node; each panel is then weighted on its own
    # and added in panel order
    values = fn_value(n, zz.ravel()).reshape(zz.shape)
    unit_weights = _unit_rule(24)[1]
    tot = 0.0
    for half, row in zip(np.diff(edges) / 2, values):
        tot += half * float(row @ unit_weights)
    return tot + fn_tail_mass(n, z_cut)


def fn_tail_mass(n: int, z_cut: float) -> float:
    """Mass of f_n beyond |z| = z_cut on both sides, F(-z_cut) - F(z_cut)
    from the antiderivative F that vanishes at +inf."""
    return float(fn_value(n, -z_cut, order=-1) - fn_value(n, z_cut, order=-1))


def lcal_apply(values, d1, d2, z, n: int):
    """Apply the linearized self-similar operator:
    L f = f'' + (z/2) f' + (1 - 2^{-(n+1)}) f."""
    lam = 1.0 - 0.5 ** (n + 1)
    return d2 + z / 2.0 * d1 + lam * values


def hermite_interpolant(x, y, dy):
    """The piecewise cubic through (x_j, y_j) with slopes dy_j (real or
    complex) on an increasing x, as a callable on arrays, zero outside
    [x_0, x_-1].  Horner's rule in u = (z - x_j) / h_j runs in place, so an
    evaluation holds one gathered coefficient at a time."""
    x, y, dy = np.asarray(x, dtype=float), np.asarray(y), np.asarray(dy)
    h, dv = np.diff(x), np.diff(y)
    m0, m1 = h * dy[:-1], h * dy[1:]
    coef = (y[:-1], m0, 3.0 * dv - 2.0 * m0 - m1, m0 + m1 - 2.0 * dv)

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        i = np.searchsorted(x, z, side="right") - 1
        np.clip(i, 0, h.size - 1, out=i)
        u = z - x[i]
        u /= h[i]
        out = coef[3][i]
        for c in coef[2::-1]:
            out *= u
            out += c[i]
        out[(z < x[0]) | (z > x[-1])] = 0.0
        return out

    return evaluate


@dataclass
class ProfileSample:
    """A profile sampled on a strictly increasing z-grid with derivatives."""

    z_grid: np.ndarray
    values: np.ndarray
    derivs: dict = field(default_factory=dict)     # order -> samples

    def __post_init__(self):
        if np.any(np.diff(self.z_grid) <= 0):
            raise ValueError("z_grid must be strictly increasing")
        if self.values.shape != self.z_grid.shape:
            raise ValueError("values/grid shape mismatch")


def Jn_infinity(n: int) -> complex:
    """Closed form Gamma(2^{-n}) 2^{-2^{-n}} e^{i pi 2^{-n-1}} for the limit
    as z -> inf of J_n(z) = int_0^z e^{2is} s^{2^{-n}-1} ds; the tests
    validate it against quadrature extrapolation."""
    beta = _check_n(n)
    return complex(math.gamma(beta) * 2.0 ** (-beta) * np.exp(1j * np.pi * beta / 2.0))


def tail_exponent_fit(z: np.ndarray, values: np.ndarray,
                      window: tuple[float, float]) -> tuple[float, float, bool]:
    """Least-squares slope of log|values| against log z over the z in the
    window [lo, hi]; a left tail is fitted by passing -z.

    Returns (slope, fit residual rms, sign_change_flag); a sign change inside
    the window is reported and the fit proceeds on |values|.
    """
    z = np.asarray(z, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    if lo >= hi or lo <= 0:
        raise ValueError("window must be 0 < lo < hi (absolute coordinates)")
    msk = (z >= lo) & (z <= hi)
    if msk.sum() < 4:
        raise ValueError("window contains fewer than 4 samples")
    vals = values[msk]
    if np.any(vals == 0):
        raise ValueError("window contains exact zeros")
    sign_change = bool(np.any(np.sign(vals[:-1]) != np.sign(vals[1:])))
    return (*loglog_fit(z[msk], vals), sign_change)
