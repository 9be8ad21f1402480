"""Property tests: transform round trip, propagator semigroup identity and
the characteristic-frame inverse, over inputs drawn by hypothesis.

The draws are derandomized and few, so the tests are deterministic and cheap.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import from_characteristic_frame
from ptails.semigroup import propagator_cs
from ptails.solver import frame_phases, to_characteristic_frame
from ptails.spectral import (Grid, SpectralField, StateVector, coeffs_of,
                             samples_of)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(st.integers(1, 10).flatmap(
    lambda m: arrays(np.float64, 2 ** m, elements=finite)))
def test_transform_pair_round_trip(x):
    x_before = x.copy()
    back = samples_of(coeffs_of(x))
    scale = max(np.abs(x).max(), 1e-300)
    assert np.abs(back.real - x).max() <= 1e-13 * scale
    assert np.abs(back.imag).max() <= 1e-13 * scale
    assert np.array_equal(x, x_before)


def _symbol(k: float, t: float) -> np.ndarray:
    C, S = propagator_cs(np.array([k]), t)
    C, S = C[0], S[0]
    return np.array([[C + k * S, 1j * S], [1j * S, C - k * S]])


# wavenumbers anywhere on the grids used, and inside the series window
# |1 - k^2| < 1e-4 around the branch points k = +-1
wavenumber = st.one_of(st.floats(-8.0, 8.0),
                       st.floats(1.0 - 2e-4, 1.0 + 2e-4),
                       st.floats(-1.0 - 2e-4, -1.0 + 2e-4))
time = st.floats(0.0, 10.0)


@PROPERTY
@given(wavenumber, time, time)
def test_propagator_semigroup_identity(k, t, s):
    assert np.abs(_symbol(k, t) @ _symbol(k, s) - _symbol(k, t + s)).max() < 1e-9


low_modes = st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                        allow_infinity=False),
                     min_size=1, max_size=8)


def _real_field(grid: Grid, modes: list) -> SpectralField:
    """Real field with the given coefficients on modes 0, 1, ...; the
    negative modes are their conjugates and the Nyquist mode is empty."""
    n = grid.n_points
    c = np.zeros(n, dtype=complex)
    c[:len(modes)] = modes
    c[0] = c[0].real
    c[n - len(modes) + 1:] = np.conj(c[1:len(modes)][::-1])
    return SpectralField(grid, c)


@PROPERTY
@given(low_modes, low_modes, st.floats(1.0, 200.0), st.floats(0.0, 100.0))
def test_frame_change_inverts(a_modes, b_modes, half_length, t):
    # real data without Nyquist content: the real-field convention keeps only
    # the real part of the Nyquist mode, so no phase shift can act on it.
    # The frames mix a and b, so the error scales with the larger of the two.
    grid = Grid(64, half_length)
    state = StateVector(_real_field(grid, a_modes), _real_field(grid, b_modes),
                        "physical")
    uv = to_characteristic_frame(state, frame_phases(grid.k, t))
    back = from_characteristic_frame(uv, t)
    assert back.frame == "physical"
    scale = max(np.abs(state.first.coeffs).max(), np.abs(state.second.coeffs).max())
    for got, want in ((back.first, state.first), (back.second, state.second)):
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-13 * scale
