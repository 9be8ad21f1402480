"""Self-similar Burgers profiles, long-tailed correction profiles, and the
expansion coefficients attached to one initial condition.

The leading profile solves g'' + (z/2) g' + g/2 + gamma (g^2)' = 0 with
prescribed mass alpha and has the closed form

    g_0(z) = tanh(alpha gamma / 2) e^{-z^2/4}
             / (gamma sqrt(pi) (1 + tanh(alpha gamma / 2) erf(z/2))),

equivalently g_0 = (ln phi)' / gamma with phi = 1 + tanh(alpha gamma/2) erf(z/2);
derivatives follow from the logarithmic-derivative recursion.  The order-n
corrections g_n solve the linearized equation L g + 2 gamma (g_0 g)' = 0 and
are built as the fixed point g = f_n(-/+ z) + R[g] where R is a pair of
Wronskian-weighted integrals against the two homogeneous solutions
f_n(z), f_n(-z); the map contracts in the algebraically weighted sup norm
for |alpha gamma| small.

Sign conventions: variation of parameters for L g = S with Wronskian
W(z) = f_n(z) d/dz f_n(-z) - f_n(-z) d/dz f_n(z) = W(0) e^{-z^2/4},
W(0) = -2 f_n(0) f_n'(0), gives

    R[g](z) = -(gamma / W(0)) [ f_n(z)  int_{-inf}^z  e^{s^2/4} h_-(s) g_0 g ds
                              + f_n(-z) int_z^{+inf} e^{s^2/4} h_+(s) g_0 g ds ],

with h_-(s) = s f_n(-s) - 2 f_n'(-s) and h_+(s) = s f_n(s) + 2 f_n'(s) (the
derivative combinations whose Gaussian leading order cancels).  The overall
sign is fixed by requiring L R = -2 gamma (g_0 g)', which the residual tests
verify directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import special
from .nonlinearity import Nonlinearity
from .special import ProfileSample

__all__ = [
    "ExpansionCoefficients",
    "BurgersProfile",
    "ExpansionModel",
    "graded_grid",
    "corrected_trapezoid",
    "cumulative_corrected_trapezoid",
    "g0_profile",
    "hessian_constants",
    "gn_fixed_point",
    "d_coefficients_analytic",
    "ProfileInterpolant",
]

POLE_GUARD = 0.1
CONTRACTION_LIMIT = 0.1
MAX_PICARD_ITER = 50
FIXED_POINT_TOL = 1e-10  # gn_fixed_point stops on a weighted update below this
_GRID_Z_MAX = 60.0      # graded_grid: half-width
_GRID_H0 = 1e-3         # graded_grid: spacing at the origin
_GRID_H_MAX = 0.1       # graded_grid: largest spacing
_GRID_RATIO = 1.03      # graded_grid: growth factor of the spacing


def graded_grid() -> np.ndarray:
    """Symmetric grid on [-60, 60], spacing 1e-3 at the origin growing
    geometrically to 0.1; resolves the Gaussian core and the algebraic
    tail windows simultaneously."""
    pts = [0.0]
    h = _GRID_H0
    while pts[-1] < _GRID_Z_MAX:
        pts.append(pts[-1] + h)
        h = min(h * _GRID_RATIO, _GRID_H_MAX)
    zp = np.array(pts)
    zp[-1] = _GRID_Z_MAX
    return np.concatenate([-zp[::-1], zp[1:]])


def _trapezoid_segments(w: np.ndarray, wp: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-interval trapezoid with the Euler-Maclaurin endpoint-derivative
    correction; fourth order on non-uniform grids given exact derivative
    samples."""
    h = np.diff(z)
    return h / 2 * (w[:-1] + w[1:]) - h ** 2 / 12 * (wp[1:] - wp[:-1])


def corrected_trapezoid(w: np.ndarray, wp: np.ndarray, z: np.ndarray) -> float:
    return float(_trapezoid_segments(w, wp, z).sum())


def cumulative_corrected_trapezoid(w: np.ndarray, wp: np.ndarray,
                                   z: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(_trapezoid_segments(w, wp, z))])


@dataclass
class ExpansionCoefficients:
    """Everything the expansion attaches to one initial condition."""

    alpha_plus: float
    alpha_minus: float
    c_plus: float
    c_minus: float
    d: list = field(default_factory=list)   # [(d_n^+, d_n^-)] for n = 1..N
    N: int = 1

    @property
    def epsilon(self) -> float:
        return 0.5 ** (self.N + 2)

    def contraction_ok(self) -> bool:
        return (abs(self.alpha_plus * self.c_plus) <= CONTRACTION_LIMIT
                and abs(self.alpha_minus * self.c_minus) <= CONTRACTION_LIMIT)


@dataclass
class BurgersProfile:
    sample: ProfileSample
    alpha: float
    gamma: float

    @property
    def mass_error(self) -> float:
        return abs(profile_mass(self.sample) - self.alpha)


def _g0_scaled(z: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    """e^{z^2/4} g_0 = (tau/gamma) / (sqrt(pi) phi), overflow-free, with
    phi = 1 + tau erf(z/2) and tau = tanh(alpha gamma/2); tau/gamma is
    continued by alpha/2 at gamma = 0, the heat-kernel Gaussian.  A phi below
    ``POLE_GUARD`` is refused before it divides."""
    tau = np.tanh(alpha * gamma / 2.0)
    phi = 1.0 + tau * special.erf(z / 2.0)
    if np.any(phi < POLE_GUARD):
        raise ValueError(
            f"denominator 1 + tanh(alpha gamma/2) erf(z/2) drops below "
            f"{POLE_GUARD}; profile too close to its pole"
        )
    ratio = tau / gamma if gamma != 0.0 else alpha / 2.0
    return ratio / np.sqrt(np.pi) / phi


def g0_function(alpha: float, gamma: float):
    """The leading profile as a plain callable (closed form, any argument)."""

    def g0(z):
        z = np.asarray(z, dtype=float)
        return np.exp(-z * z / 4.0) * _g0_scaled(z, alpha, gamma)

    return g0


def g0_profile(alpha: float, gamma: float, z_grid: np.ndarray) -> BurgersProfile:
    """Closed-form mass-alpha self-similar Burgers profile with derivatives
    to order 2.

    The values are e^{-z^2/4} times the scaled closed form of ``_g0_scaled``
    (the heat-kernel Gaussian at gamma = 0).  The derivatives come from the
    profile equation integrated once, g' = -(z/2) g - gamma g^2, and its
    derivatives; raises ValueError where the closed form's denominator
    approaches its pole."""
    z = np.asarray(z_grid, dtype=float)
    g = g0_function(alpha, gamma)(z)
    gp = -(z / 2.0) * g - gamma * g * g
    gpp = -0.5 * g - (z / 2.0) * gp - 2.0 * gamma * g * gp
    sample = ProfileSample(z_grid=z, values=g, derivs={1: gp, 2: gpp})
    return BurgersProfile(sample=sample, alpha=alpha, gamma=gamma)


def burgers_residual(profile: BurgersProfile) -> float:
    """sup |g'' + (z/2) g' + g/2 + gamma (g^2)'| over the profile grid."""
    s = profile.sample
    z = s.z_grid
    g, gp, gpp = s.values, s.derivs[1], s.derivs[2]
    res = gpp + z / 2.0 * gp + g / 2.0 + profile.gamma * 2.0 * g * gp
    return float(np.abs(res).max())


def hessian_constants(nl: Nonlinearity) -> tuple[float, float, float]:
    """(c_+, c_-, c_3) from the Hessian H of g at the origin:
    c_+- = +-(1/8) (1, +-1) H (1, +-1)^T, and the mixed coefficient
    c_3 = (H_11 - H_22) / 4 from matching the (a+b)(a-b) term.  An
    inadmissible nonlinearity is refused."""
    rep = nl.admissibility()
    if not rep.admissible:
        raise ValueError(f"nonlinearity fails the admissibility checks: {rep}")
    H = nl.hessian
    vp = np.array([1.0, 1.0])
    vm = np.array([1.0, -1.0])
    c_plus = float(vp @ H @ vp) / 8.0
    c_minus = -float(vm @ H @ vm) / 8.0
    c3 = float(H[0, 0] - H[1, 1]) / 4.0
    return c_plus, c_minus, c3


@dataclass
class FixedPointInfo:
    iterations: int
    final_delta: float
    contraction_factor: float


def gn_fixed_point(n: int, alpha: float, gamma: float, z_grid: np.ndarray,
                   sign: str) -> tuple[ProfileSample, ProfileSample, FixedPointInfo]:
    """Correction profile g_n = f_n(-/+z) + R and its remainder R by Picard
    iteration of the Wronskian-integral map; sign '+' gives the profile with
    the algebraic tail ahead (z -> +inf), '-' the mirrored one.

    Cumulative integrals use the derivative-corrected trapezoid on the graded
    grid; all e^{z^2/4}-weighted factors are combined analytically so nothing
    overflows.  Derivative samples to order 2 are propagated through the map.
    """
    if abs(alpha * gamma) > CONTRACTION_LIMIT:
        raise ValueError(
            f"|alpha*gamma| = {abs(alpha * gamma):.3f} outside the contraction "
            f"regime (limit {CONTRACTION_LIMIT})"
        )
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    z = np.asarray(z_grid, dtype=float)
    if not np.allclose(z, -z[::-1], atol=1e-12):
        raise ValueError("z_grid must be symmetric about 0 (f_n(-z) by reversal)")
    beta = 0.5 ** n
    F = special.fn_value(n, z, (0, 1, 2))
    Fm = F[:, ::-1].copy()   # f_n^{(m)}(-z); chain-rule signs handled per use
    f0, f1, f2 = F
    f0m, f1m, f2m = Fm
    i0 = int(np.searchsorted(z, 0.0))
    W0 = -2.0 * f0[i0] * f1[i0]
    g0s = g0_profile(alpha, gamma, z).sample
    # e^{z^2/4} g_0 and its derivative -gamma e^{z^2/4} g_0^2
    g0e = _g0_scaled(z, alpha, gamma)
    g0e_p = -gamma * g0e * g0s.values
    hm = z * f0m - 2.0 * f1m
    hp = z * f0 + 2.0 * f1
    hm_p = f0m - z * f1m + 2.0 * f2m
    hp_p = f0 + z * f1 + 2.0 * f2
    base = (f0m, -f1m, f2m) if sign == "+" else (f0, f1, f2)
    g, gp, gpp = (b.copy() for b in base)
    weight = (1.0 + z * z) ** ((2.0 - beta) / 2.0)
    R = Rp = Rpp = np.zeros_like(z)
    deltas = []
    converged = gamma == 0.0
    for _ in range(MAX_PICARD_ITER):
        if gamma == 0.0:
            break
        q = g0e * g
        qp = g0e_p * g + g0e * gp
        I1 = cumulative_corrected_trapezoid(hm * q, hm_p * q + hm * qp, z)
        I2f = cumulative_corrected_trapezoid(hp * q, hp_p * q + hp * qp, z)
        I2 = I2f[-1] - I2f
        c = -gamma / W0
        g0g = g0s.values * g
        g0g_p = g0s.derivs[1] * g + g0s.values * gp
        R = c * (f0 * I1 + f0m * I2)
        Rp = c * (f1 * I1 - f1m * I2) - 2.0 * gamma * g0g
        Rpp = c * (f2 * I1 + f2m * I2) + gamma * z * g0g - 2.0 * gamma * g0g_p
        gnew = base[0] + R
        delta = float(np.abs((gnew - g) * weight).max())
        deltas.append(delta)
        g = gnew
        gp = base[1] + Rp
        gpp = base[2] + Rpp
        if delta < FIXED_POINT_TOL:
            converged = True
            break
    contraction = deltas[-1] / deltas[-2] if len(deltas) >= 2 and deltas[-2] > 0 else 0.0
    info = FixedPointInfo(
        iterations=len(deltas),
        final_delta=deltas[-1] if deltas else 0.0,
        contraction_factor=float(contraction),
    )
    if not converged:
        raise RuntimeError(
            f"fixed point did not converge in {MAX_PICARD_ITER} iterations "
            f"(last delta {info.final_delta:.3e}, contraction ~{contraction:.3f})"
        )
    gn = ProfileSample(z_grid=z, values=g, derivs={1: gp, 2: gpp})
    rn = ProfileSample(z_grid=z, values=R, derivs={1: Rp, 2: Rpp})
    return gn, rn, info


def gn_equation_residual(gn: ProfileSample, g0: BurgersProfile, n: int,
                         gamma: float) -> float:
    """sup |L g_n + 2 gamma (g_0 g_n)'| over the grid."""
    z = gn.z_grid
    res = special.lcal_apply(gn.values, gn.derivs[1], gn.derivs[2], z, n)
    res = res + 2.0 * gamma * (g0.sample.derivs[1] * gn.values
                               + g0.sample.values * gn.derivs[1])
    return float(np.abs(res).max())


class ProfileInterpolant:
    """Cubic Hermite evaluation of a profile on its samples and exact slopes,
    for the arguments inside the sampled range only, with envelope-based
    extrapolation beyond it: the algebraic-tail side continues as C |z|^p,
    the Gaussian side as zero."""

    def __init__(self, sample: ProfileSample, algebraic_side: str | None,
                 tail_exponent: float | None = None):
        self.z_lo = float(sample.z_grid[0])
        self.z_hi = float(sample.z_grid[-1])
        self.cubic = special.hermite_interpolant(sample.z_grid, sample.values,
                                                 sample.derivs[1])
        self.algebraic_side = algebraic_side
        self.tail_exponent = tail_exponent
        if algebraic_side is not None:
            end = -1 if algebraic_side == "right" else 0
            self.c_tail = sample.values[end] * abs(sample.z_grid[end]) ** (-tail_exponent)

    def __call__(self, zz: np.ndarray) -> np.ndarray:
        zz = np.asarray(zz, dtype=float)
        out = np.zeros_like(zz)
        inside = (zz >= self.z_lo) & (zz <= self.z_hi)
        out[inside] = self.cubic(zz[inside])
        if self.algebraic_side is not None:
            far = zz > self.z_hi if self.algebraic_side == "right" else zz < self.z_lo
            out[far] = self.c_tail * np.abs(zz[far]) ** self.tail_exponent
        return out


@dataclass
class ExpansionModel:
    """Constructed profiles plus coefficients: the full asymptotic model for
    one initial condition."""

    coeffs: ExpansionCoefficients
    g0_plus: BurgersProfile
    g0_minus: BurgersProfile
    gn_plus: dict = field(default_factory=dict)    # n -> ProfileSample
    gn_minus: dict = field(default_factory=dict)

    def interpolants(self):
        interp = {
            "g0+": ProfileInterpolant(self.g0_plus.sample, None),
            "g0-": ProfileInterpolant(self.g0_minus.sample, None),
        }
        for n, s in self.gn_plus.items():
            interp[f"g{n}+"] = ProfileInterpolant(s, "right", -2.0 + 0.5 ** n)
        for n, s in self.gn_minus.items():
            interp[f"g{n}-"] = ProfileInterpolant(s, "left", -2.0 + 0.5 ** n)
        return interp


def build_expansion_model(coeffs: ExpansionCoefficients,
                          z_grid: np.ndarray) -> ExpansionModel:
    """Construct g_0 and g_n profiles for both characteristic families, the
    g_n to the fixed-point tolerance ``FIXED_POINT_TOL``."""
    g0p = g0_profile(coeffs.alpha_plus, coeffs.c_plus, z_grid)
    g0m = g0_profile(coeffs.alpha_minus, coeffs.c_minus, z_grid)
    model = ExpansionModel(coeffs=coeffs, g0_plus=g0p, g0_minus=g0m)
    for n in range(1, coeffs.N + 1):
        gp, _, _ = gn_fixed_point(n, coeffs.alpha_plus, coeffs.c_plus, z_grid, "+")
        gm, _, _ = gn_fixed_point(n, coeffs.alpha_minus, coeffs.c_minus, z_grid, "-")
        model.gn_plus[n] = gp
        model.gn_minus[n] = gm
    return model


def profile_mass(sample: ProfileSample) -> float:
    return corrected_trapezoid(sample.values, sample.derivs[1], sample.z_grid)


def gn_total_mass(gn: ProfileSample, n: int) -> float:
    """Mass of g_n over the whole line: grid part plus the exact algebraic
    and Gaussian tail integrals of the f_n(-/+z) component (the remainder
    part has Gaussian tails and needs no correction).  Zero analytically."""
    # the tail of f_n(-z) beyond |z| = z_max is that of f_n
    return profile_mass(gn) + special.fn_tail_mass(n, float(gn.z_grid[-1]))


def _product_mass(f: ProfileSample, g: ProfileSample) -> float:
    """M(f g) by the corrected trapezoid on the product and its derivative."""
    return corrected_trapezoid(f.values * g.values,
                               f.derivs[1] * g.values + f.values * g.derivs[1],
                               f.z_grid)


def d_coefficients_analytic(model: ExpansionModel) -> list[tuple[float, float]]:
    """Recursive d_n from the source masses and the limit-profile prefactor
    kappa_n = 2^{-1-2^{-n}} / sqrt(4 pi):

        d_1^+ = -c_- M((g_0^-)^2) kappa_1,
        d_{m+1}^+ = -2 c_- d_m^- M(g_0^- g_m^-) kappa_{m+1},

    and the mirrored formulas with +c_+ and the g^+ family for d^-.  The
    prefactor and signs are cross-validated against fit mode, never trusted
    alone.
    """
    co = model.coeffs
    kappa = lambda n: 2.0 ** (-1.0 - 0.5 ** n) / np.sqrt(4.0 * np.pi)
    g0p, g0m = model.g0_plus.sample, model.g0_minus.sample
    out = []
    # g_{n-1} and the d-factor 2 d_{n-1} of the other family; g_0 and 1 for n = 1
    prev_p, prev_m, lead_p, lead_m = g0p, g0m, 1.0, 1.0
    for n in range(1, co.N + 1):
        dp = -co.c_minus * lead_m * _product_mass(g0m, prev_m) * kappa(n)
        dm = co.c_plus * lead_p * _product_mass(g0p, prev_p) * kappa(n)
        out.append((float(dp), float(dm)))
        if n < co.N:
            prev_p, prev_m = model.gn_plus[n], model.gn_minus[n]
        lead_p, lead_m = 2.0 * dp, 2.0 * dm
    return out
