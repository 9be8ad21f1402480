import numpy as np
import pytest

from ptails import profiles
from ptails.solver import run
from ptails.spectral import Grid


@pytest.fixture(scope="session")
def zgrid():
    return profiles.graded_grid()


@pytest.fixture(scope="session")
def grid_small():
    return Grid(2 ** 10, 60.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_real_field(grid: Grid, rng, decay: float = 2.0):
    """Smooth random real field with spectrally decaying coefficients."""
    k = grid.k
    mag = np.exp(-np.abs(k) * decay) * rng.standard_normal(grid.n_points)
    phase = rng.uniform(0, 2 * np.pi, grid.n_points)
    coeffs = mag * np.exp(1j * phase)
    from ptails.spectral import SpectralField
    return SpectralField(grid, coeffs).symmetrized()


def run_collecting(config, nl, initial=None):
    """``solver.run`` with a consumer that keeps every snapshot: the record
    and the list of states, in the order of ``record.times``."""
    snapshots = []
    traj = run(config, nl, lambda state, t: snapshots.append(state), initial)
    return traj, snapshots
