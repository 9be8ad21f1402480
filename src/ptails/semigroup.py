"""Exact symbol of the coupled linear semigroup, its envelope bounds and its
intertwining defect.

The Fourier symbol of the linearized system is the 2x2 matrix generator
``L(k) = [[0, ik], [ik, -2k^2]]`` whose exponential has the closed form

    e^{Lt} = e^{-k^2 t} [[C + k S, i S], [i S, C - k S]]

with ``C = cos(k t D)``, ``S = sin(k t D)/D`` and ``D = sqrt(1 - k^2)``.
For |k| > 1 the trigonometric functions turn hyperbolic; the exponentials
are combined analytically so no intermediate overflows occur.  In the
branch window |1 - k^2| < 1e-4 an even Taylor series in (k t D)^2 through
order 8 is used instead of the direct form, which loses about four digits
to cancellation there.

Two measurements are built on the symbol: the smallest constants of its
parabolic-like envelope bounds on a (k, t) grid, and the weighted defect
between the mixed coupled semigroup and the pair of translating heat
semigroups it approaches for |k| <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BRANCH_THRESHOLD",
    "propagator_cs",
    "propagator_entries",
    "kernel_bound_check",
    "intertwining_defect",
    "KernelBoundReport",
    "IntertwiningReport",
]

BRANCH_THRESHOLD = 1e-4
KERNEL_C_CAP = 1e6        # envelope constants above this count as a violation
_SERIES_ORDER = 8

_COS_COEF = np.array([(-1.0) ** m / math.factorial(2 * m) for m in range(_SERIES_ORDER + 1)])
_SINC_COEF = np.array([(-1.0) ** m / math.factorial(2 * m + 1) for m in range(_SERIES_ORDER + 1)])


def _cs_series(k: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) including the e^{-k^2 t} damping, by the even series in (ktD)^2."""
    y = (k * t) ** 2 * (1.0 - k * k)
    c = np.full_like(y, _COS_COEF[-1])
    s = np.full_like(y, _SINC_COEF[-1])
    for m in range(_SERIES_ORDER - 1, -1, -1):
        c = c * y + _COS_COEF[m]
        s = s * y + _SINC_COEF[m]
    ek = np.exp(-k * k * t)
    return ek * c, ek * (k * t) * s


def propagator_cs(k: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Damped symbol pair (C, S) such that
    e^{Lt}(k) = [[C + kS, iS], [iS, C - kS]]: the series in the branch
    window, trig for |k| < 1 and hyperbolic for |k| > 1 outside it."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    k = np.asarray(k, dtype=float)
    d2 = 1.0 - k * k
    near = np.abs(d2) < BRANCH_THRESHOLD
    trig = ~near & (d2 > 0)
    hyp = ~(near | trig)
    C = np.empty_like(k)
    S = np.empty_like(k)
    if np.any(near):
        C[near], S[near] = _cs_series(k[near], t)
    if np.any(trig):
        kt = k[trig]
        d = np.sqrt(d2[trig])
        x = kt * t * d
        ek = np.exp(-kt ** 2 * t)
        C[trig] = ek * np.cos(x)
        S[trig] = ek * np.sin(x) / d
    if np.any(hyp):
        kh = k[hyp]
        dp = np.sqrt(-d2[hyp])
        x = kh * t * dp
        a = -kh ** 2 * t
        # a +- x <= 0 always, so both exponentials stay bounded
        e1 = np.exp(a + x)
        e2 = np.exp(a - x)
        C[hyp] = 0.5 * (e1 + e2)
        S[hyp] = 0.5 * (e1 - e2) / dp
    return C, S


def propagator_entries(k: np.ndarray, t: float):
    """The entries (C+kS, iS, C-kS) of e^{Lt}(k): the diagonal ones real, iS
    complex.  A product or sum with a spectrum casts a real entry to complex
    with a +0 imaginary part, as ``.astype(complex)`` would, so it keeps its
    bits; the cast goes through numpy's small iteration buffer, and storing
    the two real entries as float64 halves their memory (1 MB less for the
    solver's four tables at 2^15 points) at no measured cost in time."""
    k = np.asarray(k, dtype=float)
    C, S = propagator_cs(k, t)
    return C + k * S, 1j * S, C - k * S


@dataclass(frozen=True)
class KernelBoundReport:
    """Smallest constants realizing the parabolic-like envelope bounds on grids."""

    C_matrix: float          # entry-wise bound with the (1+k^2)^{-1/2} off-diagonal weight
    C_derivative: float      # bound on e^{Lt} (0, ik)^T with the sqrt(t) loss
    violation: bool


def kernel_bound_check(k_grid: np.ndarray, t_grid: np.ndarray) -> KernelBoundReport:
    """Measure the smallest C for the entry-wise envelope

    |e^{Lt}|_ij <= C e^{-min(k^2,1) t/4} [[1, w],[w, 1]],  w = (1+k^2)^{-1/2}

    and for the derivative column |e^{Lt} (0, ik)^T| with an extra 1/sqrt(t).
    """
    k_grid = np.asarray(k_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    if k_grid.size == 0 or t_grid.size == 0:
        raise ValueError("empty grid")
    w = 1.0 / np.sqrt(1.0 + k_grid ** 2)
    decay = lambda t: np.exp(-np.minimum(k_grid ** 2, 1.0) * t / 4.0)
    c_mat = 0.0
    c_der = 0.0
    for t in t_grid:
        P, Q, R = propagator_entries(k_grid, t)
        env = decay(t)
        c_mat = max(c_mat, (np.abs(P) / env).max(), (np.abs(R) / env).max(),
                    (np.abs(Q) / (env * w)).max())
        if t > 0:
            dcol0 = np.abs(k_grid * Q)     # first component of e^{Lt}(0, ik)^T
            dcol1 = np.abs(k_grid * R)     # second component
            scale = env / np.sqrt(t)
            c_der = max(c_der, (dcol0 / scale).max(), (dcol1 / (scale * w)).max())
    return KernelBoundReport(
        C_matrix=float(c_mat),
        C_derivative=float(c_der),
        violation=bool(max(c_mat, c_der) > KERNEL_C_CAP),
    )


@dataclass(frozen=True)
class IntertwiningReport:
    """sup over a (k, t) grid of sqrt(1+t) e^{k^2 t / 2} |(P S e^{Lt} - e^{L0 t} S)_ij|."""

    sup_entries: np.ndarray   # 2x2 array of measured sups

    @property
    def sup(self) -> float:
        return float(self.sup_entries.max())


def weighted_defect_entries(k: np.ndarray, t: float) -> np.ndarray:
    """|sqrt(1+t) e^{k^2 t/2} (P S e^{Lt} - e^{L0 t} S)_ij|, shape (2, 2, len(k)).

    Outside |k| <= 1 the projector kills S e^{Lt} and the weighted magnitude is
    sqrt(1+t) e^{-k^2 t/2} for every entry; exponents are combined so no
    intermediate overflow occurs.
    """
    k = np.asarray(k, dtype=float)
    inside = np.abs(k) <= 1.0
    root = np.sqrt(1.0 + t)
    out = np.empty((2, 2, k.size))
    out[:, :] = root * np.exp(-k * k * t / 2.0)   # the pure e^{L0 t} S part
    if np.any(inside):
        ki = k[inside]
        P, Q, R = propagator_entries(ki, t)
        damp = np.exp(-ki * ki * t)
        ep = damp * np.exp(1j * ki * t)
        em = damp * np.exp(-1j * ki * t)
        weight = root * np.exp(ki * ki * t / 2.0)
        # S e^{Lt} rows: (e00 + e10, e01 + e11) and (e00 - e10, e01 - e11)
        out[0, 0, inside] = np.abs(P + Q - ep) * weight
        out[0, 1, inside] = np.abs(Q + R - ep) * weight
        out[1, 0, inside] = np.abs(P - Q - em) * weight
        out[1, 1, inside] = np.abs(Q - R + em) * weight
    return out


def intertwining_defect(k_grid: np.ndarray, t_grid: np.ndarray) -> IntertwiningReport:
    k_grid = np.asarray(k_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    sups = np.zeros((2, 2))
    for t in t_grid:
        sups = np.maximum(sups, weighted_defect_entries(k_grid, t).max(axis=2))
    return IntertwiningReport(sup_entries=sups)
