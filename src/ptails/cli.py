"""Command-line orchestration: special, profiles, simulate, heat, verify, bounds.

Every subcommand writes deterministic CSV tables plus a JSON run manifest
listing the resolved configuration, all output files and the verdicts.  A
subcommand records its verdicts in the manifest and ``main`` alone turns
them into the exit code: 0 when the ``passed`` verdict is true, 1 otherwise
(a failed verdict, an aborted run or an error), 2 for a usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import heat, profiles, special, verify
from .config import (ConfigError, RunManifest, Stopwatch, _Sections, get_typed,
                     parse_config)
from .nonlinearity import default_nonlinearity, quadratic_nonlinearity, zero_nonlinearity
from .semigroup import intertwining_defect, kernel_bound_check
from .solver import SimConfig, gaussian_initial_state, run, snapshot_times
from .spectral import norms

_FLOAT_FMT = "%.17g"
# every config section some subcommand reads
_SECTIONS = ("grid", "simulate", "nonlinearity", "profiles", "heat", "verify",
             "bounds", "semigroup")


def _write_csv(path: Path, header: list[str], rows, manifest: RunManifest) -> None:
    """The table at ``path``, listed in the manifest's outputs as soon as the
    file exists."""
    with open(path, "w", newline="") as fh:
        manifest.add_output(path)
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_FLOAT_FMT % v if isinstance(v, float) else v for v in row])


def _outdir(args) -> Path:
    root = args.output or os.environ.get("PTAILS_OUTPUT", ".")
    out = Path(root)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _nonlinearity_from_config(cfg: dict):
    name = get_typed(cfg, "nonlinearity", "name", str, "default")
    if name == "default":
        return default_nonlinearity()
    if name == "zero":
        return zero_nonlinearity()
    if name == "quadratic":
        return quadratic_nonlinearity(
            gaa=get_typed(cfg, "nonlinearity", "gaa", float, 0.0),
            gab=get_typed(cfg, "nonlinearity", "gab", float, 0.0),
            gbb=get_typed(cfg, "nonlinearity", "gbb", float, 0.0),
            fa=get_typed(cfg, "nonlinearity", "fa", float, 0.0),
            fb=get_typed(cfg, "nonlinearity", "fb", float, 0.0),
        )
    raise ConfigError(f"unknown nonlinearity {name!r}")


# SimConfig field -> (section, key, type) of the simulation settings
_SIM_KEYS = {"n_points": ("grid", "n_points", int), "half_length": ("grid", "half_length", float),
             "dt": ("simulate", "dt", float), "t_final": ("simulate", "t_final", float),
             "epsilon0": ("simulate", "epsilon0", float),
             "b_fraction": ("simulate", "b_fraction", float),
             "n_snapshots": ("simulate", "snapshots", int)}


def _sim_config(cfg: dict) -> SimConfig:
    """The settings the file makes; ``SimConfig`` holds the defaults."""
    values = {name: get_typed(cfg, *where) for name, where in _SIM_KEYS.items()}
    return SimConfig(**{name: v for name, v in values.items() if v is not None})


def cmd_special(args, cfg: dict, out: Path, manifest: RunManifest) -> None:
    lo, hi = args.range
    z = np.linspace(lo, hi, args.points)
    n = args.n
    vals = special.fn_value(n, z, (0, 1, 2, 3))
    res = special.lcal_apply(vals[0], vals[1], vals[2], z, n)
    _write_csv(out / f"fn_n{n}.csv", ["z", "fn", "fn_d1", "fn_d2", "fn_d3", "ode_residual"],
               zip(z, *vals, res), manifest)
    sup_res = float(np.abs(res).max())
    manifest.verdicts["ode_residual_sup"] = sup_res
    manifest.verdicts["mass"] = special.fn_mass(n)
    manifest.verdicts["passed"] = bool(sup_res < 1e-8)


def cmd_profiles(args, cfg: dict, out: Path, manifest: RunManifest) -> None:
    alpha = get_typed(cfg, "profiles", "alpha", float, 0.5)
    gamma = get_typed(cfg, "profiles", "gamma", float, 0.1)
    n_max = get_typed(cfg, "profiles", "n_max", int, 1)
    z = profiles.graded_grid()
    g0 = profiles.g0_profile(alpha, gamma, z)
    res0 = profiles.burgers_residual(g0)
    _write_csv(out / "g0.csv", ["z", "g0", "g0_d1", "g0_d2"],
               zip(z, g0.sample.values, g0.sample.derivs[1], g0.sample.derivs[2]), manifest)
    verd = {"g0_residual": res0, "g0_mass_error": g0.mass_error}
    ok = res0 < 1e-8 and g0.mass_error < 1e-8
    for n in range(1, n_max + 1):
        gn, rn, info = profiles.gn_fixed_point(n, alpha, gamma, z, args.sign)
        res = profiles.gn_equation_residual(gn, g0, n, gamma)
        m_g = profiles.gn_total_mass(gn, n)
        m_r = profiles.profile_mass(rn)
        _write_csv(out / f"g{n}{'p' if args.sign == '+' else 'm'}.csv",
                   ["z", "gn", "gn_d1", "Rn", "mass_gn", "residual"],
                   [(z[i], gn.values[i], gn.derivs[1][i], rn.values[i], m_g, res)
                    for i in range(z.size)], manifest)
        verd[f"g{n}_residual"] = res
        verd[f"g{n}_mass"] = m_g
        verd[f"R{n}_mass"] = m_r
        verd[f"g{n}_iterations"] = info.iterations
        ok = ok and res < 1e-6 and abs(m_g) < 1e-6
    verd["passed"] = bool(ok)
    manifest.verdicts.update(verd)


def cmd_simulate(args, cfg: dict, out: Path, manifest: RunManifest) -> None:
    sim_cfg = _sim_config(cfg)
    nl = _nonlinearity_from_config(cfg)
    # the run is streamed: per snapshot the consumer keeps its unweighted
    # norms, and the state only for the csv_snapshots it writes
    n_snap = get_typed(cfg, "simulate", "csv_snapshots", int, 5)
    last = len(snapshot_times(sim_cfg)) - 1
    pick = set(np.round(np.linspace(0, last, n_snap)).astype(int).tolist())
    rows, kept = [], []

    def consume(state, t):
        if len(rows) in pick:
            kept.append((state, t))
        na, nb = norms(state.first), norms(state.second)
        rows.append((max(na.sup_fourier, nb.sup_fourier), np.hypot(na.l2[0], nb.l2[0]),
                     np.hypot(na.l2[1], nb.l2[1]), nb.l2[2]))

    traj = run(sim_cfg, nl, consume)
    manifest.verdicts.update(snapshots_requested=sim_cfg.n_snapshots,
                             snapshots_recorded=len(traj.times) - 1)
    if traj.abort_reason:
        manifest.verdicts["aborted"] = traj.abort_reason
        return
    t = np.asarray(traj.times)
    sup_f, l2, dl2, d2b = (np.array(col) for col in zip(*rows))
    series = {
        "times": t,
        "sup_fourier": sup_f,
        "l2_weighted": (1.0 + t) ** 0.25 * l2,
        "dl2_weighted": (1.0 + t) ** 0.75 * dl2,
        "d2b_weighted_star": (1.0 + t) ** 1.25 / np.log(2.0 + t) * d2b,
    }
    _write_csv(out / "norms.csv",
               ["t", "sup_fourier", "l2_weighted", "dl2_weighted",
                "d2b_weighted_star", "mass_a", "mass_b"],
               zip(*series.values(), traj.mass_a, traj.mass_b), manifest)
    for snap, t_snap in kept:
        _write_csv(out / f"snapshot_t{t_snap:.6g}.csv", ["x", "a", "b"],
                   zip(snap.grid.x, snap.first.samples(), snap.second.samples()), manifest)
    manifest.verdicts["mass_drift"] = traj.mass_drift()
    manifest.verdicts["n_steps"] = traj.n_steps
    manifest.verdicts["norm_series"] = {
        key: [float(v) for v in vals] for key, vals in series.items()
    }
    manifest.verdicts["passed"] = bool(traj.mass_drift() < 1e-9 * max(1, traj.n_steps / 1000))


def cmd_heat(args, cfg: dict, out: Path, manifest: RunManifest) -> None:
    n = get_typed(cfg, "heat", "n", int, 1)
    sigma = get_typed(cfg, "heat", "sigma", int, 1)
    shape = get_typed(cfg, "heat", "shape", str, "gaussian")
    t_lo = get_typed(cfg, "heat", "t_lo", float, 1.0)
    t_hi = get_typed(cfg, "heat", "t_hi", float, 1000.0)
    n_times = get_typed(cfg, "heat", "n_times", int, 25)
    spec = heat.make_source(n, sigma, shape)
    t_grid = np.geomspace(t_lo, t_hi, n_times)
    rep = heat.convergence_check(spec, t_grid)
    _write_csv(out / "heat_remainders.csv",
               ["t", "remainder_l2", "remainder_dl2",
                "weighted_l2", "weighted_dl2"],
               zip(rep.times, rep.remainder_l2, rep.remainder_dl2,
                   rep.weighted_l2, rep.weighted_dl2), manifest)
    manifest.verdicts.update({
        "weighted_sup": rep.weighted_sup,
        "weighted_sup_d": rep.weighted_sup_d,
        "slope_l2": rep.slope_l2,
        "measured_C": rep.measured_C,
        "stabilized": rep.stabilized,
        "passed": bool(rep.passed),
    })


def cmd_verify(args, cfg: dict, out: Path, manifest: RunManifest) -> None:
    sim_cfg = _sim_config(cfg)
    nl = _nonlinearity_from_config(cfg)
    # a config may name the one subtraction there is; any other is refused
    subtract = get_typed(cfg, "verify", "subtract", str, "full")
    if subtract != "full":
        raise ConfigError(f"[verify] subtract = {subtract!r}: the pipeline "
                          "subtracts 'full' only")
    d1_tol = get_typed(cfg, "verify", "d1_tolerance", float, 0.10)
    require_tail = get_typed(cfg, "verify", "require_tail", bool, True)
    # the model needs only the initial masses, so the remainders of both
    # sides are taken as the run makes each snapshot and no snapshot is
    # stored: of the one nearest t_final / 2 the accumulator keeps the
    # samples the tail check reads.  The run builds its own initial state,
    # so none is held here
    model = verify.build_model_from_trajectory(gaussian_initial_state(sim_cfg), nl)
    acc = verify.RemainderAccumulator(model, sim_cfg)
    traj = run(sim_cfg, nl, acc.add)
    manifest.verdicts.update(snapshots_requested=sim_cfg.n_snapshots,
                             snapshots_recorded=len(traj.times) - 1)
    if traj.abort_reason:
        manifest.verdicts["aborted"] = traj.abort_reason
        return
    result = verify.remainder_pipeline(traj, acc)
    _write_csv(out / "decay_fits.csv",
               ["quantity", "t_lo", "t_hi", "slope", "residual", "target",
                "tolerance", "passed"],
               [(r.quantity, r.t_lo, r.t_hi, r.slope, r.residual, r.target,
                 r.tolerance, r.passed) for r in result.reports], manifest)
    rows = []
    for quantity, (ts, vals) in sorted(result.series.items()):
        rows.extend((quantity, float(t), float(v)) for t, v in zip(ts, vals))
    _write_csv(out / "remainder_norms.csv", ["quantity", "t", "l2_norm"], rows, manifest)
    tail = verify.tail_precedence_check(acc)
    manifest.verdicts.update({
        "fits": [r.row() for r in result.reports],
        "d1_fit": result.d1_fit,
        "d1_analytic": result.d1_analytic,
        "d1_relative_difference": result.d1_relative_difference("+"),
        "d1_fit_window_fallback": result.d1_fit_window_fallback,
        "mass_error": result.mass_error,
        "tail_ahead_slope": tail.ahead_slope,
        "tail_behind_slope": tail.behind_slope,
        "tail_passed": tail.passed,
    })
    # the two-sided N0 target presumes the first correction term dominates,
    # which no feasible horizon realizes (see README); report it, gate on the
    # one-sided fits plus the d1 agreement and the tail ranking
    gating = [r for r in result.reports if not r.quantity.endswith("_N0")]
    ok = (all(r.passed for r in gating)
          and (tail.passed or not require_tail)
          and result.d1_relative_difference("+") <= d1_tol)
    manifest.verdicts["passed"] = bool(ok)


def cmd_bounds(args, cfg: dict, out: Path, manifest: RunManifest) -> None:
    t_max = get_typed(cfg, "bounds", "t_max", float, 1000.0)
    n_t = get_typed(cfg, "bounds", "n_t", int, 60)
    t_grid = np.concatenate([[0.0], np.geomspace(1e-2, t_max, n_t)])
    rows = verify.bound_check(t_grid)
    _write_csv(out / "bound_kernels.csv", ["name", "measured_C", "finite"],
               [(r.name, r.measured_C, r.finite) for r in rows], manifest)
    ok = all(r.finite for r in rows)
    manifest.verdicts["kernels"] = {r.name: r.measured_C for r in rows}
    manifest.verdicts["passed"] = bool(ok)


def cmd_semigroup(args, cfg: dict, out: Path, manifest: RunManifest) -> None:
    k_grid = np.linspace(-8.0, 8.0, get_typed(cfg, "semigroup", "n_k", int, 801))
    t_grid = np.concatenate([[0.0], np.geomspace(0.01, 100.0, 60)])
    kb = kernel_bound_check(k_grid, t_grid)
    defect_k = np.linspace(-4, 4, 801)
    it = intertwining_defect(defect_k, t_grid)
    grid_desc = lambda k, t: (float(k.min()), float(k.max()), int(k.size),
                              float(t.max()), int(t.size))
    rows = [("matrix", *grid_desc(k_grid, t_grid), kb.C_matrix),
            ("derivative_column", *grid_desc(k_grid, t_grid), kb.C_derivative)]
    for i in range(2):
        for j in range(2):
            rows.append((f"defect_{i}{j}", *grid_desc(defect_k, t_grid),
                         it.sup_entries[i, j]))
    _write_csv(out / "semigroup_bounds.csv",
               ["entry", "k_min", "k_max", "n_k", "t_max", "n_t", "measured_C"],
               rows, manifest)
    ok = not kb.violation and np.isfinite(it.sup)
    manifest.verdicts.update({"kernel_C": kb.C_matrix, "defect_sup": it.sup,
                              "passed": bool(ok)})


_COMMANDS = {
    "special": cmd_special,
    "profiles": cmd_profiles,
    "simulate": cmd_simulate,
    "heat": cmd_heat,
    "verify": cmd_verify,
    "bounds": cmd_bounds,
    "semigroup": cmd_semigroup,
}


def _z_range(text: str) -> tuple[float, float]:
    """``lo:hi``, two finite floats with lo < hi."""
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not lo:hi") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"{text!r} needs finite lo < hi")
    return lo, hi


def _point_count(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"{n} points: need at least 2")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ptails",
                                description="long-time asymptotics of the viscous "
                                            "p-system: profiles, simulation, verification")
    p.add_argument("--config", "-c", help="key = value configuration file")
    p.add_argument("--output", "-o", help="output directory (default: $PTAILS_OUTPUT or .)")
    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("special", help="emit f_n tables")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--range", type=_z_range, default="-20:20")
    sp.add_argument("--points", type=_point_count, default=801)
    pr = sub.add_parser("profiles", help="construct g0 and g_n profiles")
    pr.add_argument("--sign", choices="+-", default="+")
    sub.add_parser("simulate", help="run the pseudospectral simulation")
    sub.add_parser("heat", help="inhomogeneous-heat convergence check")
    sub.add_parser("verify", help="end-to-end expansion verification")
    sub.add_parser("bounds", help="bound-kernel dominance check")
    sub.add_parser("semigroup", help="semigroup envelope and defect sups")
    return p


def _keep_freed_heap() -> None:
    """Keep freed memory in the process heap instead of handing it back to
    the system after every free.

    A solver step allocates nine spectrum-sized work arrays and returns two
    of them, ``s0`` and ``s1``, as the new state, so it frees seven, and the
    state it replaces frees two more.  Under glibc's default dynamic
    thresholds the top of the heap can be trimmed and faulted in again on
    every step.  When a step still allocated some forty, a 656-step verify
    on 2^15 points took 3.9 million minor page faults, and 4e4 with the
    settings here.  Arrays up to 4 MB come from the heap, and its top is
    trimmed only beyond 64 MB free.  It does nothing off Linux or without a
    C-library mallopt.  Only the ``ptails`` command gets this setting:
    library callers of ``solver.run`` keep their process's allocator policy.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 4 << 20)     # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else _Sections()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = _outdir(args)
    manifest = RunManifest(subcommand=args.command,
                           config={s: dict(v) for s, v in cfg.items()})

    def record_warning(message, *_):
        print(f"warning: {message}", file=sys.stderr)
        manifest.warnings.append(str(message))

    try:
        with Stopwatch() as sw, warnings.catch_warnings():
            # every warning the subcommand raises reaches stderr and the manifest
            warnings.simplefilter("always")
            warnings.showwarning = record_warning
            try:
                _COMMANDS[args.command](args, cfg, out, manifest)
            except (ValueError, RuntimeError) as exc:
                # the manifest still lists what was written before the error
                print(f"error: {exc}", file=sys.stderr)
                manifest.verdicts.update({"passed": False, "error": str(exc)})
            # a key that does nothing is reported, not silently accepted
            for message in cfg.unread(_SECTIONS, args.command):
                warnings.warn(message)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    manifest.wall_seconds = sw.seconds
    manifest_path = out / f"manifest_{args.command}.json"
    manifest.write(manifest_path)
    print(f"wrote {len(manifest.outputs)} output file(s) + {manifest_path}")
    # an aborted run records no "passed" verdict, so it exits 1 too
    return 0 if manifest.verdicts.get("passed") is True else 1


if __name__ == "__main__":
    raise SystemExit(main())
