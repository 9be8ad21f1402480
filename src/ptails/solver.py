"""Pseudospectral simulation of the viscous p-system via Duhamel time stepping.

The linear part is applied exactly through the closed-form semigroup symbol,
whose entries C+kS, iS and C-kS are tabulated once per step size (the two
real ones as float64); only the nonlinear source
h(a,b) = g(a,b) + f(a,b) b_x is integrated by the integrating-factor RK4
(Kassam & Trefethen, SIAM J. Sci. Comput. 26, 1214).  Quadratic/cubic
products are dealiased by 2/3 truncation (the source's cut modes are set to
zero), and Hermitian symmetry of the spectra is re-enforced every step, so
physical fields stay real and both masses are conserved to rounding.
Snapshots are read in the characteristic frame through
``to_characteristic_frame``, whose phase multipliers ``frame_phases`` gives,
so a consumer that needs them twice forms them once.

A step works on a fixed set of work arrays: ``Stepper.step`` allocates
``_STEP_ARRAYS`` spectrum-sized arrays per call, and it, ``source`` and
``_apply`` write every product, sum and transform into them (``out=``, with
the out-taking transforms ``coeffs_into`` and ``samples_into``).  The new
state is two of them, symmetrized in place (``spectral.symmetrize``, with
one half-size temporary), so a step makes no other grid-sized array but the
nonlinearity's products.  The operands and their order are the formulas',
so the bits are the same as with a new array per operation.

``run`` records snapshots at the times ``snapshot_times`` gives and hands
each to an ``on_snapshot(state, t)`` consumer as it is made.  It stores
none, so memory does not grow with the snapshot count: the consumer keeps
what it needs (``verify.RemainderAccumulator`` for ``ptails verify``, a
series of norms and a few states for ``ptails simulate``).  Of the initial
state it keeps only the symmetrized copy it starts from.

One source evaluation costs three transforms: inverse transforms of ``a`` and
``b_x`` and one forward transform of ``h``.  The samples of ``b`` are
transformed only for a nonlinearity that reads them (``Nonlinearity.reads_b``),
the ``ik`` factor is precomputed, and the 2/3 rule's cut modes, one
contiguous run in FFT order, are zeroed through one slice.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .nonlinearity import Nonlinearity
from .semigroup import propagator_entries
from .spectral import (Grid, SpectralField, StateVector, coeffs_into, mass,
                       norms, samples_into, symmetrize, transform_forward)

__all__ = [
    "SimConfig",
    "TrajectoryRecord",
    "Stepper",
    "run",
    "snapshot_times",
    "frame_phases",
    "to_characteristic_frame",
    "gaussian_initial_state",
]

X_SUPPORT = 15.0    # nominal support radius of the initial data
DEALIAS_FRACTION = 2.0 / 3.0    # modes above this fraction of the top one are cut


@dataclass
class SimConfig:
    n_points: int = 2 ** 12
    half_length: float = 400.0
    dt: float | None = None            # default 0.5 dx capped at 0.1
    t_final: float = 100.0
    epsilon0: float = 0.05
    b_fraction: float = 0.3
    n_snapshots: int = 80              # upper bound on the snapshots after t = 0

    def grid(self) -> Grid:
        return Grid(self.n_points, self.half_length)

    def resolved_dt(self) -> float:
        g = self.grid()
        dt = self.dt if self.dt is not None else min(0.5 * g.dx, 0.1)
        if dt > 0.5 * g.dx + 1e-15:
            raise ValueError(f"dt = {dt} violates the advective guard 0.5 dx = {0.5 * g.dx}")
        return dt

    def validate(self):
        if not (np.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be finite and positive, got {self.t_final!r}")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        required = X_SUPPORT + 2.0 * self.t_final + 10.0 * np.sqrt(self.t_final)
        if self.half_length < required:
            raise ValueError(
                f"domain rule violated: need L >= {required:.1f} "
                f"(support + transport + diffusive spread), got {self.half_length}"
            )
        self.resolved_dt()


@dataclass
class TrajectoryRecord:
    config: SimConfig
    times: list = field(default_factory=list)
    mass_a: list = field(default_factory=list)
    mass_b: list = field(default_factory=list)
    wall_seconds: float = 0.0
    abort_reason: str = ""             # empty unless the run stopped early
    n_steps: int = 0

    def mass_drift(self) -> float:
        ma = np.asarray(self.mass_a)
        mb = np.asarray(self.mass_b)
        return float(max(np.abs(ma - ma[0]).max(), np.abs(mb - mb[0]).max()))


# spectrum-sized work arrays of one step
_STEP_ARRAYS = 9


def _axpy(x, c: float, y, out):
    """out = x + c y elementwise, rounded as ``x + c * y``; ``out`` may be
    ``y`` but not ``x``."""
    return np.add(x, np.multiply(c, y, out=out), out=out)


class Stepper:
    """Precomputed propagator tables and the pseudospectral source term.

    The symbol entries ``C+kS``, ``iS`` and ``C-kS`` are built once per step
    size, and ``ik`` and the slice ``cut`` of the modes the 2/3 rule cuts
    once per grid.  The source forces only the second equation: ``source``
    writes only its second component, and ``_apply`` and ``step`` skip the
    terms the zero first one would give.  The system is autonomous, so no
    stage needs the time.
    """

    def __init__(self, grid: Grid, dt: float, nl: Nonlinearity):
        self.grid = grid
        self.dt = dt
        self.nl = nl
        k = grid.k
        self.ik = 1j * k
        # |k| falls from the Nyquist mode outwards in FFT order, so the cut
        # modes are one run of indices around it
        cut = np.flatnonzero(np.abs(k) > DEALIAS_FRACTION * float(np.abs(k).max()))
        self.cut = slice(cut[0], cut[-1] + 1) if cut.size else slice(0)
        self._tables = {tag: propagator_entries(k, tt)
                        for tag, tt in (("half", dt / 2.0), ("full", dt))}

    def _apply(self, pair, tag, out, work):
        """The propagator of step ``tag`` applied to ``pair`` (whose first
        component may be None for zero), written into the array pair ``out``,
        which must not share memory with ``pair``; ``work`` is one scratch
        array."""
        P, Q, R = self._tables[tag]
        a, b = pair
        oa, ob = out
        if a is None:
            np.multiply(Q, b, out=oa)
            np.multiply(R, b, out=ob)
        else:
            np.add(np.multiply(P, a, out=oa), np.multiply(Q, b, out=work), out=oa)
            np.add(np.multiply(Q, a, out=ob), np.multiply(R, b, out=work), out=ob)

    def source(self, pair, out, work):
        """N(z) = (0, ik h-hat) with 2/3 dealiasing: its second component is
        written into ``out``, which also holds the samples of a until h is
        known.  ``work`` is two scratch arrays, for the samples of b_x and of
        b.  The samples of b are transformed only if the nonlinearity reads
        them (b is passed as None otherwise)."""
        nl = self.nl
        a = samples_into(pair[0], out).real
        b = samples_into(pair[1], work[1]).real if nl.reads_b else None
        bx = samples_into(np.multiply(self.ik, pair[1], out=work[0]), work[0]).real
        coeffs_into(nl.source(a, b, bx), out)
        np.multiply(out, self.ik, out=out)
        out[self.cut] = 0.0

    def step(self, state: StateVector) -> StateVector:
        """The integrating-factor RK4 step.  The terms e2k1, ek2 and ek3 of
        the combination go into running sums as soon as their stage's source
        is known, added as ((e2k1 + 2 ek2) + 2 ek3) + k4 as in the formula."""
        dt = self.dt
        pair = (state.first.coeffs, state.second.coeffs)
        # separate arrays, each small enough to come from the heap that the
        # ptails command keeps (cli._keep_freed_heap), not from a new mmap
        n = self.grid.n_points
        h, w, tmp, e0, e1, x0, x1, s0, s1 = (np.empty(n, dtype=complex)
                                             for _ in range(_STEP_ARRAYS))
        sw = (w, tmp)               # the source's scratch pair
        self.source(pair, h, sw)                            # h = k1
        self._apply(pair, "half", (e0, e1), tmp)            # e = e_half
        self._apply((None, h), "half", (x0, x1), tmp)       # x = ek1
        self._apply((None, h), "full", (s0, s1), tmp)       # s = e2k1
        _axpy(e0, dt / 2, x0, x0)                           # x = e_half
        _axpy(e1, dt / 2, x1, x1)                           #   + dt/2 ek1
        self.source((x0, x1), h, sw)                        # h = k2
        self._apply((None, h), "half", (x0, x1), tmp)       # x = ek2
        np.add(s0, np.multiply(2, x0, out=x0), out=s0)
        np.add(s1, np.multiply(2, x1, out=x1), out=s1)
        self.source((e0, _axpy(e1, dt / 2, h, x1)), h, sw)  # h = k3
        self._apply(pair, "full", (e0, e1), tmp)            # e = e_full
        self._apply((None, h), "half", (x0, x1), tmp)       # x = ek3
        np.add(s0, np.multiply(2, x0, out=tmp), out=s0)
        np.add(s1, np.multiply(2, x1, out=tmp), out=s1)
        _axpy(e0, dt, x0, x0)                               # x = e_full
        _axpy(e1, dt, x1, x1)                               #   + dt ek3
        self.source((x0, x1), h, sw)                        # h = k4
        np.add(s1, h, out=s1)
        a = symmetrize(_axpy(e0, dt / 6, s0, s0))
        b = symmetrize(_axpy(e1, dt / 6, s1, s1))
        return StateVector(SpectralField(self.grid, a), SpectralField(self.grid, b), "physical")


def gaussian_initial_state(config: SimConfig) -> StateVector:
    g = config.grid()
    x = g.x
    a0 = config.epsilon0 * np.exp(-x ** 2 / 4.0)
    b0 = config.epsilon0 * config.b_fraction * np.exp(-x ** 2 / 4.0)
    return StateVector(transform_forward(a0, g), transform_forward(b0, g), "physical")


def _snapshot_steps(n_steps: int, n_snapshots: int) -> set:
    if n_snapshots >= n_steps:
        return set(range(1, n_steps + 1))
    geo = np.geomspace(1, n_steps, n_snapshots)
    # a set, not np.unique, which imports numpy.ma
    return set(np.round(geo).astype(int).tolist())


def _schedule(config: SimConfig) -> tuple[float, int, dict]:
    """(dt, n_steps, {step: time}) for the snapshots after t = 0: the step
    size is shrunk so that n_steps steps end exactly at t_final."""
    config.validate()
    n_steps = int(np.ceil(config.t_final / config.resolved_dt() - 1e-12))
    dt = config.t_final / n_steps
    steps = sorted(int(i) for i in _snapshot_steps(n_steps, config.n_snapshots))
    return dt, n_steps, {i: i * dt for i in steps}


def snapshot_times(config: SimConfig) -> list:
    """The times ``run`` records for this configuration, t = 0 first, bit-equal
    to the ones it records (unless it aborts)."""
    return [0.0, *_schedule(config)[2].values()]


def run(config: SimConfig, nl: Nonlinearity,
        on_snapshot: Callable[[StateVector, float], None],
        initial: StateVector | None = None) -> TrajectoryRecord:
    """Integrate to t_final and call ``on_snapshot(state, t)`` at every
    recorded time (those of ``snapshot_times``, t = 0 included).

    The record keeps the times and masses but no snapshot, so memory does
    not grow with the snapshot count.  An exception the consumer raises ends
    the run.  Norm guard: data above the working amplitude only warns
    (``warnings.warn``); the smallness threshold of the asymptotic regime is
    empirical."""
    dt, n_steps, snap_at = _schedule(config)
    grid = config.grid()
    if initial is None:
        initial = gaussian_initial_state(config)
    if initial.grid != grid:
        raise ValueError("initial state grid does not match the configuration")
    adm = nl.admissibility()
    if not adm.admissible:
        raise ValueError(f"nonlinearity fails admissibility sampling: {adm}")
    init_norm = norms(initial.first).sup
    if init_norm > 2.0 * config.epsilon0:
        warnings.warn(f"initial amplitude {init_norm:.3g} above the epsilon0 guard "
                      f"{config.epsilon0}; continuing", stacklevel=2)
    stepper = Stepper(grid, dt, nl)
    rec = TrajectoryRecord(config=config)

    def record(state: StateVector, t: float):
        rec.times.append(t)
        rec.mass_a.append(mass(state.first))
        rec.mass_b.append(mass(state.second))
        on_snapshot(state, t)

    t0 = time.perf_counter()
    state = initial.symmetrized()
    del initial              # the run reads only the symmetrized copy
    record(state, 0.0)
    for i in range(1, n_steps + 1):
        state = stepper.step(state)
        if not np.isfinite(state.first.coeffs).all() or not np.isfinite(state.second.coeffs).all():
            rec.abort_reason = f"non-finite spectrum at step {i} (t = {i * dt:.4g})"
            break
        if i in snap_at:
            record(state, snap_at[i])
    rec.wall_seconds = time.perf_counter() - t0
    rec.n_steps = n_steps
    return rec


def frame_phases(k: np.ndarray, t: float) -> tuple:
    """(e^{-ikt}, e^{ikt}): the phase multipliers of the frame change at t."""
    return np.exp(-1j * k * t), np.exp(1j * k * t)


def to_characteristic_frame(state: StateVector, phases: tuple) -> StateVector:
    """(u, v) with u(x,t) = a(x-t,t) + b(x-t,t), v(x,t) = a(x+t,t) - b(x+t,t),
    realized by the phase multipliers ``phases = frame_phases(k, t)`` on
    a +- b."""
    if state.frame != "physical":
        raise ValueError("expected a physical-frame state")
    a, b = state.first.coeffs, state.second.coeffs
    u, v = np.add(a, b), np.subtract(a, b)
    # not ``phases[0] * (a + b)``: numpy would write that product into the
    # temporary a + b with the operands swapped, and a complex product's
    # fused multiply-add rounds differently in the two orders
    np.multiply(phases[0], u, out=u)
    np.multiply(phases[1], v, out=v)
    return StateVector(SpectralField(state.grid, symmetrize(u)),
                       SpectralField(state.grid, symmetrize(v)), "characteristic")
