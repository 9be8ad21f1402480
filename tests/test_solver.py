import tracemalloc

import numpy as np
import pytest

from conftest import random_real_field, run_collecting
from oracles import apply_eLt, from_characteristic_frame
from ptails.nonlinearity import (Nonlinearity, default_nonlinearity,
                                 quadratic_nonlinearity, zero_nonlinearity)
from ptails.semigroup import propagator_cs, propagator_entries
from ptails.solver import (DEALIAS_FRACTION, SimConfig, Stepper, _schedule,
                           _snapshot_steps, gaussian_initial_state, run,
                           snapshot_times, frame_phases, to_characteristic_frame)
from ptails.spectral import (Grid, SpectralField, StateVector, coeffs_into, mass,
                             norms, samples_into, samples_of, transform_forward)


def small_state(grid, amp=0.05, frac=0.3):
    a0 = amp * np.exp(-grid.x ** 2 / 4)
    b0 = frac * amp * np.exp(-grid.x ** 2 / 4)
    return StateVector(transform_forward(a0, grid),
                       transform_forward(b0, grid), "physical")


@pytest.fixture(scope="module")
def grid():
    return Grid(2 ** 10, 80.0)


def test_config_domain_rule():
    cfg = SimConfig(n_points=2 ** 10, half_length=50.0, t_final=100.0)
    with pytest.raises(ValueError):
        cfg.validate()


def test_config_cfl_guard():
    cfg = SimConfig(n_points=2 ** 10, half_length=300.0, t_final=10.0, dt=10.0)
    with pytest.raises(ValueError):
        cfg.validate()


def test_linear_limit_exactness(grid):
    # with the source off, integrating-factor stepping is the semigroup itself
    state = small_state(grid)
    st = Stepper(grid, 0.05, zero_nonlinearity())
    s = state
    for _ in range(100):
        s = st.step(s)
    exact = apply_eLt(state, 5.0)
    assert np.abs(s.first.coeffs - exact.first.coeffs).max() < 1e-10
    assert np.abs(s.second.coeffs - exact.second.coeffs).max() < 1e-10


def test_mass_conservation_per_1000_steps(grid):
    state = small_state(grid)
    st = Stepper(grid, 0.05, default_nonlinearity())
    m0a, m0b = mass(state.first), mass(state.second)
    s = state
    for _ in range(1000):
        s = st.step(s)
    assert abs(mass(s.first) - m0a) < 1e-9
    assert abs(mass(s.second) - m0b) < 1e-9


def test_dt_self_convergence_fourth_order(grid):
    state = small_state(grid, amp=0.4)
    nl = default_nonlinearity()

    def run_dt(dt, T=8.0):
        st = Stepper(grid, dt, nl)
        s = state
        for _ in range(int(round(T / dt))):
            s = st.step(s)
        return s

    sA, sB, sC = run_dt(0.2), run_dt(0.1), run_dt(0.05)
    eAB = np.abs(sA.first.coeffs - sB.first.coeffs).max()
    eBC = np.abs(sB.first.coeffs - sC.first.coeffs).max()
    assert 12.0 <= eAB / eBC <= 20.0


def test_etd_heun_cross_check(grid):
    # a second-order scheme, written out in the reference stepper, converges
    # to the same solution as the package's IF-RK4
    state = small_state(grid, amp=0.2)
    st = Stepper(grid, 0.01, default_nonlinearity())
    ref = _ReferenceStepper(st)
    s4 = s2 = state
    for _ in range(200):
        s4 = st.step(s4)
        s2 = ref.step(s2, "ETD-Heun")
    assert np.abs(s4.first.coeffs - s2.first.coeffs).max() < 5e-7


def test_reality_preserved(grid):
    state = small_state(grid)
    st = Stepper(grid, 0.05, default_nonlinearity())
    s = state
    for _ in range(50):
        s = st.step(s)
    c = s.first.coeffs
    assert np.abs(samples_of(c).imag).max() < 1e-12
    assert np.abs(c[1:] - np.conj(c[1:][::-1])).max() < 1e-14


def test_frame_change_t0_and_roundtrip(grid):
    state = small_state(grid)
    uv = to_characteristic_frame(state, frame_phases(state.grid.k, 0.0))
    a, b = state.first.samples(), state.second.samples()
    assert np.abs(uv.first.samples() - (a + b)).max() < 1e-12
    assert np.abs(uv.second.samples() - (a - b)).max() < 1e-12
    uv5 = to_characteristic_frame(state, frame_phases(state.grid.k, 5.0))
    back = from_characteristic_frame(uv5, 5.0)
    assert np.abs(back.first.coeffs - state.first.coeffs).max() < 1e-12
    assert np.abs(back.second.coeffs - state.second.coeffs).max() < 1e-12


def test_frame_reconstruction_identity(grid):
    # a(x) = (u(x+t) + v(x-t))/2 pointwise
    state = small_state(grid)
    t = 3.0
    uv = to_characteristic_frame(state, frame_phases(state.grid.k, t))
    k = grid.k
    a_rec = 0.5 * (np.exp(1j * k * t) * uv.first.coeffs
                   + np.exp(-1j * k * t) * uv.second.coeffs)
    assert np.abs(a_rec - state.first.coeffs).max() < 1e-10


def test_frame_change_multiplies_in_formula_order():
    # e^{-ikt} (a + b) and e^{ikt} (a - b) with the phase as the left
    # operand: a complex product rounds differently with its operands
    # swapped, which numpy does when it reuses a temporary right operand
    # (arrays of 256 KB and more, so the grid is the flagship's)
    g = Grid(2 ** 15, 2500.0)
    rng = np.random.default_rng(11)
    a = random_real_field(g, rng, decay=0.02)
    b = random_real_field(g, rng, decay=0.02)
    t = 2.75
    uv = to_characteristic_frame(StateVector(a, b, "physical"), frame_phases(g.k, t))
    for got, phase, mixed in ((uv.first, np.exp(-1j * g.k * t), a.coeffs + b.coeffs),
                              (uv.second, np.exp(1j * g.k * t), a.coeffs - b.coeffs)):
        want = SpectralField(g, phase * mixed).symmetrized().coeffs
        assert got.coeffs.tobytes() == want.tobytes()
        assert not np.array_equal(mixed * phase, phase * mixed)


def test_frame_change_moves_argmax_by_t():
    # the frame change translates a + b by t and a - b by -t: a peak at the
    # origin moves to x = t in u and to x = -t in v
    g = Grid(2 ** 12, 60.0)
    a0 = np.exp(-(g.x ** 2))
    state = StateVector(transform_forward(a0, g), transform_forward(0.3 * a0, g),
                        "physical")
    uv = to_characteristic_frame(state, frame_phases(state.grid.k, 5.0))
    assert abs(g.x[np.argmax(uv.first.samples())] - 5.0) <= g.dx + 1e-12
    assert abs(g.x[np.argmax(uv.second.samples())] + 5.0) <= g.dx + 1e-12


def test_frame_change_preserves_coefficient_moduli(grid_small):
    # pure phase multipliers: |c_k| of a +- b and both masses are unchanged.
    # Its own generator, so the draw does not depend on which tests ran first
    rng = np.random.default_rng(137)
    a = random_real_field(grid_small, rng)
    b = random_real_field(grid_small, rng)
    uv = to_characteristic_frame(StateVector(a, b, "physical"),
                                 frame_phases(grid_small.k, 1.234))
    assert np.abs(np.abs(uv.first.coeffs) - np.abs(a.coeffs + b.coeffs)).max() < 1e-13
    assert np.abs(np.abs(uv.second.coeffs) - np.abs(a.coeffs - b.coeffs)).max() < 1e-13
    assert abs(mass(uv.first) - (mass(a) + mass(b))) < 1e-14
    assert abs(mass(uv.second) - (mass(a) - mass(b))) < 1e-14


def test_rightward_pulse_stationary_in_u():
    # linear run, data on the + characteristic only: in the co-moving frame
    # the peak stays put up to diffusion/dispersion.  A wide pulse keeps the
    # dispersive correction to the unit characteristic speed (order k^2)
    # below the grid spacing over the run.
    g = Grid(2 ** 12, 200.0)
    amp = 0.05
    a0 = amp * np.exp(-g.x ** 2 / 400)
    state = StateVector(transform_forward(a0, g), transform_forward(a0, g),
                        "physical")   # a = b puts everything in u
    st = Stepper(g, 0.1, zero_nonlinearity())
    s = state
    for _ in range(200):
        s = st.step(s)
    u = to_characteristic_frame(s, frame_phases(g.k, 20.0)).first.samples()
    drift = abs(g.x[np.argmax(u)])
    assert drift <= 2 * g.dx


def test_run_records_and_conserves():
    cfg = SimConfig(n_points=2 ** 10, half_length=120.0, t_final=20.0,
                    n_snapshots=12)
    traj, snapshots = run_collecting(cfg, default_nonlinearity())
    assert not traj.abort_reason
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(20.0)
    assert traj.times == snapshot_times(cfg)
    assert traj.mass_drift() < 1e-10
    assert len(snapshots) == len(traj.times)
    assert traj.mass_a == [mass(s.first) for s in snapshots]
    assert traj.mass_b == [mass(s.second) for s in snapshots]
    assert all(np.isfinite(norms(s.first).l2[0]) and np.isfinite(norms(s.second).l2[0])
               for s in snapshots)


def test_run_warns_on_data_above_the_amplitude_guard():
    cfg = SimConfig(n_points=2 ** 10, half_length=120.0, t_final=1.0,
                    epsilon0=0.05, n_snapshots=2)
    big = gaussian_initial_state(SimConfig(n_points=2 ** 10, half_length=120.0,
                                           epsilon0=0.15))
    with pytest.warns(UserWarning, match="initial amplitude 0.15 above the "
                                         "epsilon0 guard 0.05; continuing"):
        traj = run(cfg, default_nonlinearity(), lambda state, t: None, big)
    assert not traj.abort_reason


def test_weighted_l2_component_bounded():
    # (1+t)^{1/4} ||z||_2 stays bounded and stops growing past the transient
    cfg = SimConfig(n_points=2 ** 12, half_length=450.0, t_final=150.0,
                    n_snapshots=40)
    traj, snapshots = run_collecting(cfg, default_nonlinearity())
    t = np.asarray(traj.times)
    w = (1.0 + t) ** 0.25 * np.array([np.hypot(norms(s.first).l2[0], norms(s.second).l2[0])
                                      for s in snapshots])
    assert np.isfinite(w).all()
    late = w[t >= 10.0]
    assert late.max() <= w.max() * (1 + 1e-9)
    assert late[-1] <= late[0] * 1.02     # non-increasing after the transient


def test_run_zero_data_stays_zero():
    cfg = SimConfig(n_points=2 ** 10, half_length=120.0, t_final=10.0,
                    epsilon0=0.0)
    final = run_collecting(cfg, default_nonlinearity())[1][-1]
    assert np.abs(final.first.coeffs).max() == 0.0
    assert np.abs(final.second.coeffs).max() == 0.0


def test_weighted_norm_growth_at_most_exponential():
    # N(t) = 0.5 ||x^2 z||^2 grows at most exponentially: every pairwise
    # growth rate (log N(t2) - log N(t1))/(t2 - t1) stays below a fixed B
    # once the transient has passed
    cfg = SimConfig(n_points=2 ** 11, half_length=150.0, t_final=30.0,
                    n_snapshots=20)
    traj, snapshots = run_collecting(cfg, default_nonlinearity())
    t = np.asarray(traj.times)
    logN = np.log([0.5 * (norms(s.first).weighted_l2 ** 2 + norms(s.second).weighted_l2 ** 2)
                   for s in snapshots])
    sel = t >= 5.0
    ts, ln = t[sel], logN[sel]
    rates = [(ln[j] - ln[i]) / (ts[j] - ts[i])
             for i in range(len(ts)) for j in range(i + 1, len(ts))]
    b_hat = max(rates)
    assert np.isfinite(b_hat)
    assert b_hat <= 1.0


def test_stepper_tables_are_the_propagator_entries():
    # byte for byte, and equal to the entries formed from the (C, S) pair:
    # C +- kS as float64, iS complex
    st = Stepper(Grid(512, 80.0), 0.07, default_nonlinearity())
    k = st.grid.k
    for tag, t in (("half", st.dt / 2.0), ("full", st.dt)):
        C, S = propagator_cs(k, t)
        formed = (C + k * S, 1j * S, C - k * S)
        for table, entry, direct in zip(st._tables[tag], propagator_entries(k, t), formed):
            assert table.tobytes() == entry.tobytes() == direct.tobytes()
        assert [e.dtype for e in st._tables[tag]] == [np.float64, np.complex128,
                                                     np.float64]


class _ComplexTableStepper(Stepper):
    """The stepper as it was with complex diagonal tables (C +- kS cast with
    ``.astype(complex)``) and the dealiasing folded into an ``ik * mask``
    multiplier."""

    def __init__(self, grid, dt, nl):
        super().__init__(grid, dt, nl)
        self._tables = {tag: tuple(e.astype(complex) for e in table)
                        for tag, table in self._tables.items()}
        k = grid.k
        self.ik_dealias = self.ik * (np.abs(k) <= DEALIAS_FRACTION * float(np.abs(k).max()))

    def source(self, pair, out, work):
        nl = self.nl
        a = samples_into(pair[0], out).real
        b = samples_into(pair[1], work[1]).real if nl.reads_b else None
        bx = samples_into(np.multiply(self.ik, pair[1], out=work[0]), work[0]).real
        coeffs_into(nl.source(a, b, bx), out)
        np.multiply(out, self.ik_dealias, out=out)


def test_stepper_matches_complex_tables_bytewise_on_the_flagship_grid():
    # real diagonal tables and a zeroed cut band change no byte of the state,
    # signed zeros included (np.array_equal would count -0.0 as +0.0, and the
    # cut band is where a zero's sign could move): the flagship's 2^15 points,
    # L = 2500 and the step size of its t_final = 50 run, default nonlinearity
    cfg = SimConfig(n_points=2 ** 15, half_length=2500.0, t_final=50.0)
    dt, n_steps, _ = _schedule(cfg)
    assert n_steps == 656
    nl = default_nonlinearity()
    st = Stepper(cfg.grid(), dt, nl)
    old = _ComplexTableStepper(cfg.grid(), dt, nl)
    s = r = gaussian_initial_state(cfg).symmetrized()
    for _ in range(20):
        s, r = st.step(s), old.step(r)
        assert s.first.coeffs.tobytes() == r.first.coeffs.tobytes()
        assert s.second.coeffs.tobytes() == r.second.coeffs.tobytes()


def test_stepper_holds_four_real_and_three_complex_spectra():
    # the four diagonal tables are float64; the two iS tables and ik complex
    g = Grid(2 ** 12, 400.0)
    st = Stepper(g, 0.05, default_nonlinearity())
    arrays = [v for v in vars(st).values() if isinstance(v, np.ndarray)]
    arrays += [e for table in st._tables.values() for e in table]
    assert all(a.shape == (g.n_points,) for a in arrays)
    assert sorted(a.dtype.name for a in arrays) == ["complex128"] * 3 + ["float64"] * 4
    assert sum(a.nbytes for a in arrays) == (4 * 8 + 3 * 16) * g.n_points


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 2 ** 12, 2 ** 15])
def test_stepper_cut_slice_is_the_two_thirds_rule(n):
    # the one slice the source zeroes holds exactly the modes the 2/3 rule cuts
    g = Grid(n, 80.0)
    k = g.k
    st = Stepper(g, 0.05, default_nonlinearity())
    cut = np.zeros(n, dtype=bool)
    cut[st.cut] = True
    np.testing.assert_array_equal(cut, ~(np.abs(k) <= DEALIAS_FRACTION * np.abs(k).max()))


class _ReferenceStepper:
    """Integrating-factor RK4 and ETD-Heun written out in full: propagator
    symbols formed on every apply and an explicit zero first source
    component.  The package steps by the first; the second cross-checks it.
    The wavenumbers and the 2/3 dealias mask are built here from the grid."""

    def __init__(self, st: Stepper):
        self.st = st
        self.k = st.grid.k
        self.dealias = np.abs(self.k) <= DEALIAS_FRACTION * np.abs(self.k).max()
        self.tables = {tag: propagator_cs(self.k, tt)
                       for tag, tt in (("half", st.dt / 2.0), ("full", st.dt))}

    def apply(self, pair, tag):
        C, S = self.tables[tag]
        k = self.k
        a, b = pair
        return ((C + k * S) * a + 1j * S * b, 1j * S * a + (C - k * S) * b)

    def source(self, pair):
        st = self.st
        n = st.grid.n_points
        a = np.fft.ifft(pair[0]).real * n
        b = np.fft.ifft(pair[1]).real * n
        bx = np.fft.ifft(1j * self.k * pair[1]).real * n
        h = st.nl.source(a, b, bx)
        hh = np.fft.fft(h) * self.dealias / n
        return (np.zeros_like(hh), 1j * self.k * hh)

    def step(self, state, scheme):
        dt = self.st.dt
        pair = (state.first.coeffs, state.second.coeffs)
        if scheme == "IF-RK4":
            k1 = self.source(pair)
            e_half = self.apply(pair, "half")
            ek1 = self.apply(k1, "half")
            k2 = self.source((e_half[0] + dt / 2 * ek1[0],
                              e_half[1] + dt / 2 * ek1[1]))
            k3 = self.source((e_half[0] + dt / 2 * k2[0],
                              e_half[1] + dt / 2 * k2[1]))
            e_full = self.apply(pair, "full")
            ek3 = self.apply(k3, "half")
            k4 = self.source((e_full[0] + dt * ek3[0], e_full[1] + dt * ek3[1]))
            e2k1 = self.apply(k1, "full")
            ek2 = self.apply(k2, "half")
            a, b = (e_full[c] + dt / 6 * (e2k1[c] + 2 * ek2[c] + 2 * ek3[c] + k4[c])
                    for c in (0, 1))
        else:
            n0 = self.source(pair)
            e_full = self.apply(pair, "full")
            en0 = self.apply(n0, "full")
            pred = (e_full[0] + dt * en0[0], e_full[1] + dt * en0[1])
            n1 = self.source(pred)
            a, b = (e_full[c] + dt / 2 * (en0[c] + n1[c]) for c in (0, 1))
        g = self.st.grid
        return StateVector(SpectralField(g, a), SpectralField(g, b),
                           "physical").symmetrized()


@pytest.mark.parametrize("scheme,case", [("IF-RK4", "psystem"),
                                         ("IF-RK4", "psystem-reads-b")])
def test_stepper_matches_reference_formulas_bitwise(scheme, case):
    # precomputed symbols, the skipped zero source component, the skipped
    # transform of an unread b, the out-taking transform pair and the zeroed
    # cut band change no bit
    g = Grid(2 ** 12, 400.0)
    if case == "psystem-reads-b":
        nl = quadratic_nonlinearity(gaa=1.0, gbb=0.5, fa=1.0, fb=-0.5)
        assert nl.reads_b
        st = Stepper(g, 0.05, nl)
    else:
        st = Stepper(g, 0.05, default_nonlinearity())
    ref = _ReferenceStepper(st)
    s = r = small_state(g, amp=0.2)
    for _ in range(60):
        s = st.step(s)
        r = ref.step(r, scheme)
    assert np.array_equal(s.first.coeffs, r.first.coeffs)
    assert np.array_equal(s.second.coeffs, r.second.coeffs)
    assert np.abs(s.second.coeffs).max() > 0.0


@pytest.mark.parametrize("n_snapshots", [1, 2, 7, 80, 100, 999, 1000, 1001, 5000])
@pytest.mark.parametrize("n_steps", [1, 2, 10, 656, 1000, 13108])
def test_snapshot_steps_match_the_unique_formula(n_steps, n_snapshots):
    # the set built from the rounded list is np.unique's, as Python ints;
    # from n_snapshots >= n_steps on every step is a snapshot step
    got = _snapshot_steps(n_steps, n_snapshots)
    assert all(type(i) is int for i in got)
    if n_snapshots >= n_steps:
        assert got == set(range(1, n_steps + 1))
    else:
        geo = np.geomspace(1, n_steps, n_snapshots)
        assert sorted(got) == np.unique(np.round(geo).astype(int)).tolist()


def test_admissibility_samples_a_grid_without_the_origin():
    seen = []

    def g(a, b):
        seen.append((a.copy(), b.copy()))
        return a * a
    Nonlinearity(g=g, f=lambda a, b: a, hessian=np.diag([2.0, 0.0])).admissibility()
    a, b = max(seen, key=lambda ab: ab[0].size)
    assert a.size == 64
    assert np.hypot(a, b).min() > 0.0
    assert len(set(zip(a.tolist(), b.tolist()))) == 64
    assert np.abs(a).max() < 1e-2 and np.abs(b).max() < 1e-2


@pytest.mark.parametrize("nl", [default_nonlinearity(),
                                quadratic_nonlinearity(gaa=1.0, gab=0.5, fa=1.0, fb=-0.5)],
                         ids=["default", "with-gab"])
def test_admissible_nonlinearities_pass_the_grid_samples(nl):
    rep = nl.admissibility()
    assert rep.admissible
    assert 0.0 < rep.C_quadratic < 2.0 and 0.0 < rep.C_linear < 2.0


def test_factories_declare_whether_b_is_read():
    assert not default_nonlinearity().reads_b
    assert not zero_nonlinearity().reads_b
    assert not quadratic_nonlinearity(gaa=1.0, fa=2.0).reads_b
    assert quadratic_nonlinearity(gab=1.0).reads_b
    assert quadratic_nonlinearity(gbb=1.0).reads_b
    assert quadratic_nonlinearity(fb=1.0).reads_b
    assert Nonlinearity(g=lambda a, b: a * a, f=lambda a, b: a,
                        hessian=np.diag([2.0, 0.0])).reads_b


def test_source_refuses_a_nonlinearity_that_misdeclares_b(grid):
    # b is not transformed for reads_b=False, so a g that reads it fails
    # loudly instead of computing with stale data
    wrong = Nonlinearity(g=lambda a, b: a * b, f=lambda a, b: a,
                         hessian=np.array([[0.0, 1.0], [1.0, 0.0]]), reads_b=False)
    state = small_state(grid)
    n = grid.n_points
    out, work = np.empty(n, dtype=complex), np.empty((2, n), dtype=complex)
    with pytest.raises(TypeError, match="NoneType"):
        Stepper(grid, 0.05, wrong).source((state.first.coeffs, state.second.coeffs),
                                          out, work)


def test_step_working_set_is_bounded():
    # the stages write into the step's nine work arrays, and two of them are
    # symmetrized in place into the returned state, through a half-size
    # temporary: about 10.5 spectra.  Symmetrizing into two new arrays took
    # it to 11, and a new array per product and sum to about 20
    g = Grid(2 ** 12, 400.0)
    st = Stepper(g, 0.05, default_nonlinearity())
    s = st.step(small_state(g, amp=0.2))
    tracemalloc.start()
    try:
        st.step(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    spectrum = 16 * g.n_points
    assert peak < 11 * spectrum, peak / spectrum
