"""Pluggable nonlinearities f(a,b), g(a,b) with admissibility checks.

A nonlinearity is admissible when g vanishes quadratically at the origin
(with quadratic part g0 and cubically small difference), and f vanishes
linearly, each with the matching Lipschitz bounds.  The checks here sample
those inequalities at small points rather than proving them.  The Hessian
of g at the origin, which fixes the expansion constants c_+-, is given
exactly by the constructor, never differenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Nonlinearity",
    "AdmissibilityReport",
    "default_nonlinearity",
    "zero_nonlinearity",
    "quadratic_nonlinearity",
]

_FD_STEP = 1e-5
# admissibility() samples its inequalities at the midpoints of the
# _SAMPLE_CELLS x _SAMPLE_CELLS cells of the square
# [-_SAMPLE_SCALE, _SAMPLE_SCALE]^2, a grid without the origin
_SAMPLE_SCALE = 1e-2
_SAMPLE_CELLS = 8


def _at(fn: Callable, a: float, b: float) -> float:
    """fn(a, b) at one point, passed as one-element arrays."""
    return float(np.atleast_1d(fn(np.array([a], dtype=float), np.array([b], dtype=float)))[0])


@dataclass
class Nonlinearity:
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hessian: np.ndarray                 # exact Hessian of g at the origin, 2x2
    reads_b: bool = True                # False: g and f ignore b, passed as None

    def __post_init__(self):
        self.hessian = np.asarray(self.hessian, dtype=float)

    def quadratic_part(self, a, b):
        """g0(a, b) = (1/2) (a, b) H (a, b)^T."""
        H = self.hessian
        return 0.5 * (H[0, 0] * a * a + 2 * H[0, 1] * a * b + H[1, 1] * b * b)

    def source(self, a, b, bx):
        """h(a, b) = g(a, b) + f(a, b) * db/dx, the Duhamel source density.
        ``b`` may be None when ``reads_b`` is False; ``bx`` is always given."""
        return self.g(a, b) + self.f(a, b) * bx

    def admissibility(self) -> "AdmissibilityReport":
        n = _SAMPLE_CELLS
        mid = _SAMPLE_SCALE * ((2 * np.arange(n) + 1) / n - 1.0)
        a, b = np.repeat(mid, n), np.tile(mid, n)
        r = np.hypot(a, b)
        gv = self.g(a, b)
        fv = self.f(a, b)
        dg = gv - self.quadratic_part(a, b)
        h = _FD_STEP
        grad = np.array([(_at(self.g, h, 0.0) - _at(self.g, -h, 0.0)) / (2 * h),
                         (_at(self.g, 0.0, h) - _at(self.g, 0.0, -h)) / (2 * h)])
        return AdmissibilityReport(
            origin_value=abs(_at(self.g, 0.0, 0.0)),
            origin_gradient=float(np.abs(grad).max()),
            f_origin_value=abs(_at(self.f, 0.0, 0.0)),
            C_quadratic=float(np.max(np.abs(gv) / r ** 2)),
            C_cubic=float(np.max(np.abs(dg) / r ** 3)),
            C_linear=float(np.max(np.abs(fv) / r)),
        )


@dataclass(frozen=True)
class AdmissibilityReport:
    origin_value: float
    origin_gradient: float
    f_origin_value: float
    C_quadratic: float
    C_cubic: float
    C_linear: float

    @property
    def admissible(self) -> bool:
        return (self.origin_value <= 1e-10 and self.origin_gradient <= 1e-6
                and self.f_origin_value <= 1e-10 and np.isfinite(self.C_quadratic)
                and np.isfinite(self.C_cubic) and np.isfinite(self.C_linear))


def default_nonlinearity() -> Nonlinearity:
    """g(a,b) = a^2, f(a,b) = a: passes the admissibility checks with
    g0 = g, and yields Hessian constants (1/4, -1/4, 1/2) so both the
    Burgers self-interaction and the cross-characteristic driving act."""
    return Nonlinearity(g=lambda a, b: a * a, f=lambda a, b: a,
                        hessian=np.array([[2.0, 0.0], [0.0, 0.0]]), reads_b=False)


def zero_nonlinearity() -> Nonlinearity:
    zero = lambda a, b: np.zeros_like(np.asarray(a, dtype=float))
    return Nonlinearity(g=zero, f=zero, hessian=np.zeros((2, 2)), reads_b=False)


def quadratic_nonlinearity(gaa: float = 0.0, gab: float = 0.0, gbb: float = 0.0,
                           fa: float = 0.0, fb: float = 0.0) -> Nonlinearity:
    """General quadratic g = gaa a^2 + gab a b + gbb b^2 with linear f.
    Without b-terms the functions never touch b, so ``reads_b`` is False."""
    reads_b = bool(gab != 0 or gbb != 0 or fb != 0)
    if reads_b:
        g = lambda a, b: gaa * a * a + gab * a * b + gbb * b * b
        f = lambda a, b: fa * a + fb * b
    else:
        g = lambda a, b: gaa * a * a
        f = lambda a, b: fa * a
    return Nonlinearity(g=g, f=f, hessian=np.array([[2 * gaa, gab], [gab, 2 * gbb]]),
                        reads_b=reads_b)
