"""Periodic spectral substrate: grids, transforms, Fourier multipliers, norms.

Conventions used throughout the package:

* the domain is ``[-L, L)`` sampled at ``n_points`` equispaced points,
* wavenumbers are ``k_j = pi j / L`` in FFT ordering,
* a field stores complex Fourier coefficients ``c_k = FFT(samples) / n_points``,
  so the continuum transform is ``fhat(k) = 2 L c_k`` and the zeroth
  coefficient carries the mean; ``mass = 2 L c_0`` equals the physical
  integral of the field.

Real-valued fields are stored as full complex spectra with Hermitian
symmetry re-enforced after multiplier applications, in place by
``symmetrize``.

Transforms on the simulation grid go through one complex-to-complex pair,
``coeffs_into`` and ``samples_into`` (numpy's pocketfft with
``norm="forward"``, so the 1/n sits on the forward side and the coefficients
need no rescaling).  They write into a given array, so a caller can reuse
its work arrays; ``coeffs_of`` and ``samples_of`` are the same pair into a
new array.  Because n is a power of two, the scalings are exact: the pair
gives the same bits as ``np.fft.fft(x) / n`` and ``np.fft.ifft(c * n)``,
and (numpy >= 2 and scipy run the same pocketfft) as the ``scipy.fft`` c2c
pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "StateVector",
    "NormReport",
    "coeffs_of",
    "coeffs_into",
    "samples_of",
    "samples_into",
    "symmetrize",
    "transform_forward",
    "derivative",
    "mass",
    "norms",
]


def coeffs_into(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Normalized Fourier coefficients ``FFT(samples) / n`` written into the
    complex array ``out`` and returned.  The samples are copied into ``out``
    and transformed there in place, so ``out`` may share memory with them."""
    np.copyto(out, samples)
    return np.fft.fft(out, norm="forward", out=out)


def samples_into(coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Complex physical samples ``n * IFFT(coeffs)`` written into the complex
    array ``out`` (which may be ``coeffs`` itself) and returned."""
    return np.fft.ifft(coeffs, norm="forward", out=out)


def coeffs_of(samples: np.ndarray) -> np.ndarray:
    """``coeffs_into`` a new array, leaving the samples alone."""
    samples = np.asarray(samples)
    return coeffs_into(samples, np.empty(samples.shape, dtype=complex))


def samples_of(coeffs: np.ndarray) -> np.ndarray:
    """``samples_into`` a new array; take ``.real`` for a real field."""
    return samples_into(coeffs, np.empty(np.shape(coeffs), dtype=complex))


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[-L, L)`` with a power-of-two point count."""

    n_points: int
    half_length: float

    def __post_init__(self):
        if not _is_power_of_two(self.n_points):
            raise ValueError(f"n_points must be a power of two, got {self.n_points}")
        if not self.half_length > 0:
            raise ValueError(f"half_length must be positive, got {self.half_length!r}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @property
    def x(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.n_points)

    @property
    def k(self) -> np.ndarray:
        """Wavenumbers ``pi j / L`` in FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def nyquist_index(self) -> int:
        return self.n_points // 2


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a (usually real) function on a Grid."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.n_points,):
            raise ValueError(
                f"coefficient array has length {self.coeffs.shape}, "
                f"grid has {self.grid.n_points} points"
            )

    def samples(self) -> np.ndarray:
        """Real physical samples (imaginary residue discarded)."""
        return samples_of(self.coeffs).real

    def fhat(self) -> np.ndarray:
        """Continuum Fourier transform values ``fhat(k_j)``.

        The grid origin sits at x = -L, so coefficient m carries an extra
        (-1)^m relative to the continuum transform (e^{i k_m L} with
        k_m = pi m / L); the parity factor is applied exactly.
        """
        return 2.0 * self.grid.half_length * self.coeffs * _mode_parity(self.grid)

    def symmetrized(self) -> "SpectralField":
        """Enforce Hermitian symmetry c(-k) = conj(c(k)); zero Nyquist imag."""
        return SpectralField(self.grid, symmetrize(self.coeffs.copy()))


def symmetrize(c: np.ndarray) -> np.ndarray:
    """Hermitian symmetrization of a full spectrum, in place, returning it:
    c[0] and c[n/2] keep their real parts and every other c[m] becomes
    0.5 (c[m] + conj(c[n - m])).  Each entry is formed by that formula,
    operands in that order, not as the conjugate of its mirror: the two
    differ in the sign of a zero imaginary part where c[m] and c[n - m]
    cancel.  Holds one half-size temporary, the old lower half."""
    n = c.size
    h = n // 2
    low, high = c[1:h], c[h + 1:]
    old_low = low.copy()
    np.conjugate(high[::-1], out=low)
    np.add(old_low, low, out=low)
    np.multiply(0.5, low, out=low)
    np.conjugate(old_low, out=old_low)
    np.add(high, old_low[::-1], out=high)
    np.multiply(0.5, high, out=high)
    c[0] = c[0].real
    c[h] = c[h].real
    return c


def _mode_parity(grid: Grid) -> np.ndarray:
    """(-1)^m per FFT mode index: the exact value of e^{+- i k_m L}."""
    return 1.0 - 2.0 * (np.arange(grid.n_points) % 2)


def field_from_continuum_fhat(grid: Grid, fhat_values: np.ndarray) -> SpectralField:
    """Field whose continuum transform takes the given values on grid.k."""
    coeffs = np.asarray(fhat_values, dtype=complex) * _mode_parity(grid) \
        / (2.0 * grid.half_length)
    return SpectralField(grid, coeffs)


def transform_forward(samples: np.ndarray, grid: Grid) -> SpectralField:
    samples = np.asarray(samples)
    if samples.shape != (grid.n_points,):
        raise ValueError(
            f"sample array has length {samples.shape}, grid has {grid.n_points} points"
        )
    return SpectralField(grid, coeffs_of(samples))


def derivative(fld: SpectralField, order: int) -> SpectralField:
    """Spectral derivative: multiply by (ik)^order, Nyquist zeroed for odd orders."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return fld
    k = fld.grid.k
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult = mult.copy()
        mult[fld.grid.nyquist_index] = 0.0
    return SpectralField(fld.grid, fld.coeffs * mult)


def mass(fld: SpectralField) -> float:
    """Integral over the periodic domain, i.e. 2L c_0."""
    return float((2.0 * fld.grid.half_length * fld.coeffs[0]).real)


@dataclass(frozen=True)
class NormReport:
    """Instantaneous norms of a field: the L2 norms of the field and its
    first two derivatives, the field's sup, the sup of its continuum Fourier
    transform, and its x^2-weighted L2 norm."""

    l2: tuple           # ||D^m f||_2 for m = 0, 1, 2
    sup: float          # ||f||_inf over the samples
    sup_fourier: float
    weighted_l2: float  # || x^2 f ||_2 on the truncated domain


def norms(fld: SpectralField) -> NormReport:
    g = fld.grid
    dx = g.dx
    s0 = fld.samples()
    l2 = []
    for m in range(3):
        s = derivative(fld, m).samples() if m else s0
        l2.append(float(np.sqrt(np.sum(s * s) * dx)))
    w = g.x ** 2 * s0
    return NormReport(
        l2=tuple(l2),
        sup=float(np.abs(s0).max()),
        sup_fourier=float(np.abs(fld.fhat()).max()),
        weighted_l2=float(np.sqrt(np.sum(w * w) * dx)),
    )


@dataclass(frozen=True)
class StateVector:
    """Two-component state (a, b) in the physical frame or (u, v) in the
    characteristic frame; both components share one grid."""

    first: SpectralField
    second: SpectralField
    frame: str    # "physical" -> (a, b); "characteristic" -> (u, v)

    def __post_init__(self):
        if self.first.grid != self.second.grid:
            raise ValueError("components must share one grid")
        if self.frame not in ("physical", "characteristic"):
            raise ValueError(f"unknown frame {self.frame!r}")

    @property
    def grid(self) -> Grid:
        return self.first.grid

    def symmetrized(self) -> "StateVector":
        return StateVector(self.first.symmetrized(), self.second.symmetrized(), self.frame)
