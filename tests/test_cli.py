import csv
import importlib.util
import json
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ptails
from conftest import run_collecting
from ptails import cli, solver, verify
from ptails.cli import main
from ptails.config import ConfigError, RunManifest, _Sections, parse_config
from ptails.nonlinearity import default_nonlinearity
from ptails.solver import SimConfig, snapshot_times
from ptails.spectral import mass, norms


def test_parse_config_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("""
# comment
[grid]
n_points = 1024
half_length = 300.0

[simulate]
t_final = 10.0  # trailing comment
""")
    cfg = parse_config(p)
    assert cfg["grid"]["n_points"] == "1024"
    assert cfg["simulate"]["t_final"] == "10.0"


def test_parse_config_line_numbered_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[grid]\nn_points 1024\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(p)
    assert exc.value.line_no == 2


def test_parse_config_key_outside_section(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("n_points = 4\n")
    with pytest.raises(ConfigError):
        parse_config(p)


@pytest.mark.parametrize("argv", [
    ["--range=5"], ["--range=a:b"], ["--range=3:1"], ["--range=nan:1"],
    ["--points", "0"], ["--points", "1"],
], ids=["one-value", "not-floats", "reversed", "nan", "no-points", "one-point"])
def test_cli_special_usage_error_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(["-o", str(tmp_path), "special", *argv])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_cli_special_emits_table(tmp_path):
    code = main(["-o", str(tmp_path), "special", "--n", "1",
                 "--range=-20:20", "--points", "101"])
    assert code == 0
    table = tmp_path / "fn_n1.csv"
    assert table.exists()
    header = table.read_text().splitlines()[0]
    assert header == "z,fn,fn_d1,fn_d2,fn_d3,ode_residual"
    manifest = json.loads((tmp_path / "manifest_special.json").read_text())
    assert manifest["outputs"] == ["fn_n1.csv"]
    assert manifest["verdicts"]["passed"] is True


def test_cli_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\nwhat even is this line\n")
    code = main(["-c", str(bad), "-o", str(tmp_path), "special"])
    assert code == 2


def test_cli_profiles_subcommand(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[profiles]\nalpha = 0.5\ngamma = 0.1\nn_max = 1\n")
    code = main(["-c", str(cfg), "-o", str(tmp_path), "profiles"])
    assert code == 0
    assert (tmp_path / "g0.csv").exists()
    assert (tmp_path / "g1p.csv").exists()


def test_cli_profiles_defaults_inside_contraction_regime(tmp_path):
    # `ptails -o out profiles` with no config: the default alpha*gamma must
    # stay within |alpha*gamma| <= 0.1
    code = main(["-o", str(tmp_path), "profiles"])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest_profiles.json").read_text())
    assert manifest["verdicts"]["passed"] is True


def test_cli_error_still_writes_manifest(tmp_path, capsys):
    # |alpha*gamma| = 0.15 is outside the contraction regime: g0 is written,
    # then the g_1 fixed point refuses to start
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[profiles]\nalpha = 0.5\ngamma = 0.3\nn_max = 1\n")
    code = main(["-c", str(cfg), "-o", str(tmp_path), "profiles"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "contraction" in err
    manifest = json.loads((tmp_path / "manifest_profiles.json").read_text())
    assert manifest["outputs"] == ["g0.csv"]
    assert manifest["verdicts"]["passed"] is False
    assert manifest["verdicts"]["error"] == err.strip()[len("error: "):]


def test_cli_bounds_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg = tmp_path / "b.cfg"
    cfg.write_text("[bounds]\nt_max = 50.0\nn_t = 12\n")
    assert main(["-c", str(cfg), "-o", str(out1), "bounds"]) == 0
    assert main(["-c", str(cfg), "-o", str(out2), "bounds"]) == 0
    b1 = (out1 / "bound_kernels.csv").read_bytes()
    b2 = (out2 / "bound_kernels.csv").read_bytes()
    assert b1 == b2
    # the manifests name their outputs relative to themselves, so only the
    # timing tells the two runs apart
    m1, m2 = (json.loads((out / "manifest_bounds.json").read_text()) for out in (out1, out2))
    del m1["wall_seconds"], m2["wall_seconds"]
    assert m1 == m2


def test_manifest_length_does_not_move_with_the_wall_time(tmp_path):
    # wall_seconds is written with three decimals (0.180, not 0.18), so two
    # manifests that differ only in wall time have the same byte length; it
    # still loads as a float, and a nested key of the same name is untouched
    sizes = set()
    for seconds in (0.18, 0.195, 0.2, 0.0, 0.1234567):
        manifest = RunManifest("bounds", {"bounds": {"wall_seconds": None}},
                               verdicts={"passed": True}, wall_seconds=seconds)
        path = tmp_path / "manifest_bounds.json"
        manifest.write(path)
        text = path.read_text()
        loaded = json.loads(text)
        assert type(loaded["wall_seconds"]) is float
        assert loaded["wall_seconds"] == round(seconds, 3)
        assert loaded["config"] == {"bounds": {"wall_seconds": None}}
        sizes.add(len(path.read_bytes()))
    assert len(sizes) == 1, sizes


def test_cli_simulate_manifest_lists_every_output(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("""
[grid]
n_points = 1024
half_length = 120.0
[simulate]
t_final = 10.0
snapshots = 10
csv_snapshots = 3
""")
    code = main(["-c", str(cfg), "-o", str(tmp_path), "simulate"])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest_simulate.json").read_text())
    written = {p.name for p in tmp_path.glob("*.csv")}
    assert written == set(manifest["outputs"])
    assert manifest["warnings"] == []


@pytest.mark.parametrize("key,value", [
    ("t_final", "-1"), ("t_final", "0"), ("t_final", "nan"),
    ("dt", "0"), ("dt", "-0.1"), ("dt", "nan"),
])
def test_cli_simulate_refuses_a_length_it_cannot_run(tmp_path, capsys, key, value):
    # refused before the run: a negative t_final would make no step and
    # pass, a zero one or a zero dt would divide by zero, and a NaN would
    # slip past the domain rule
    settings = {"t_final": "2.0", "dt": "0.1", key: value}
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[grid]\nn_points = 256\nhalf_length = 60.0\n[simulate]\n"
                   + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["-c", str(cfg), "-o", str(tmp_path), "simulate"]) == 1
    message = f"{key} must be finite and positive, got {float(value)!r}"
    assert capsys.readouterr().err == f"error: {message}\n"
    manifest = json.loads((tmp_path / "manifest_simulate.json").read_text())
    assert manifest["verdicts"] == {"passed": False, "error": message}
    assert manifest["outputs"] == [] and not list(tmp_path.glob("*.csv"))


def test_cli_simulate_norms_equal_collected_snapshot_norms(tmp_path):
    # norms.csv, written by the CLI's streaming consumer, against
    # spectral.norms of the snapshots a list consumer keeps in a separate run
    cfg = tmp_path / "s.cfg"
    cfg.write_text(_TINY_SIMULATION)
    assert main(["-c", str(cfg), "-o", str(tmp_path), "simulate"]) == 0
    with open(tmp_path / "norms.csv") as fh:
        columns = {key: np.array([float(v) for v in col])
                   for key, *col in zip(*csv.reader(fh))}
    sim = SimConfig(n_points=256, half_length=60.0, t_final=2.0, n_snapshots=4)
    traj, snapshots = run_collecting(sim, default_nonlinearity())
    t = np.array(traj.times)
    na = [norms(s.first) for s in snapshots]
    nb = [norms(s.second) for s in snapshots]
    expected = {
        "t": t,
        "sup_fourier": np.array([max(a.sup_fourier, b.sup_fourier) for a, b in zip(na, nb)]),
        "l2_weighted": (1.0 + t) ** 0.25 * np.array([np.hypot(a.l2[0], b.l2[0])
                                                     for a, b in zip(na, nb)]),
        "dl2_weighted": (1.0 + t) ** 0.75 * np.array([np.hypot(a.l2[1], b.l2[1])
                                                      for a, b in zip(na, nb)]),
        "d2b_weighted_star": (1.0 + t) ** 1.25 / np.log(2.0 + t) * np.array(
            [b.l2[2] for b in nb]),
        "mass_a": np.array([mass(s.first) for s in snapshots]),
        "mass_b": np.array([mass(s.second) for s in snapshots]),
    }
    assert columns.keys() == expected.keys()
    for key, values in expected.items():
        assert np.array_equal(columns[key], values), key


def test_cli_simulate_memory_does_not_grow_with_snapshots(tmp_path):
    # simulate keeps the norms of each snapshot and the csv_snapshots states
    # it writes: ten times the snapshots must not cost the ~7 MB that
    # storing them did
    peaks = {}
    for n_snapshots in (20, 200):
        cfg = tmp_path / f"s{n_snapshots}.cfg"
        cfg.write_text("[grid]\nn_points = 2048\nhalf_length = 250.0\n"
                       f"[simulate]\nt_final = 50.0\nsnapshots = {n_snapshots}\n")
        tracemalloc.start()
        try:
            assert main(["-c", str(cfg), "-o", str(tmp_path / cfg.stem), "simulate"]) == 0
            peaks[n_snapshots] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[200] - peaks[20]) < 2e6, peaks


def test_cli_simulate_records_snapshot_counts(tmp_path):
    # snapshots = N is an upper bound: N geometric step numbers are rounded
    # and the duplicates recorded once, so at 500 steps 80 give 59 after t = 0
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[grid]\nn_points = 2048\nhalf_length = 250.0\n"
                   "[simulate]\nt_final = 50.0\nsnapshots = 80\n")
    assert main(["-c", str(cfg), "-o", str(tmp_path), "simulate"]) == 0
    verdicts = json.loads((tmp_path / "manifest_simulate.json").read_text())["verdicts"]
    assert (verdicts["snapshots_requested"], verdicts["snapshots_recorded"]) == (80, 59)
    with open(tmp_path / "norms.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 59 + 1
    # the flagship_t50 benchmark config: 656 steps, 100 requested, 73 recorded
    flagship = SimConfig(n_points=2 ** 15, half_length=2500.0, t_final=50.0,
                         n_snapshots=100)
    assert len(snapshot_times(flagship)) - 1 == 73


def test_cli_records_warnings_in_the_manifest(tmp_path, monkeypatch, capsys):
    # a warning raised inside a subcommand reaches stderr and the manifest
    from ptails import solver

    def warning_run(config, nl, on_snapshot, initial=None):
        warnings.warn("initial amplitude above the guard")
        return solver.run(config, nl, on_snapshot, initial)

    monkeypatch.setattr(cli, "run", warning_run)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(_TINY_SIMULATION)
    for _ in range(2):          # a repeated warning is recorded every time
        assert main(["-c", str(cfg), "-o", str(tmp_path), "simulate"]) == 0
        manifest = json.loads((tmp_path / "manifest_simulate.json").read_text())
        assert manifest["warnings"] == ["initial amplitude above the guard"]
        assert "warning: initial amplitude above the guard\n" in capsys.readouterr().err


def _warnings_of(tmp_path, text: str, *argv) -> tuple[int, list]:
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "w.cfg"
    cfg.write_text(text)
    code = main(["-c", str(cfg), "-o", str(tmp_path), *argv])
    manifest = json.loads((tmp_path / f"manifest_{argv[0]}.json").read_text())
    return code, manifest["warnings"]


@pytest.mark.parametrize("text,command,expected", [
    ("[heat]\nt_lo = 1.0\nt_hi = 100.0\nn_tims = 3\n", "heat",
     ["config key [heat] n_tims is not read by heat"]),
    # the time stepper and the dealias fraction are no longer settable
    ("[grid]\nn_points = 256\nhalf_length = 60.0\n[simulate]\nt_final = 2.0\n"
     "snapshots = 4\nscheme = ETD-Heun\ndealias = 0.5\n", "simulate",
     ["config key [simulate] scheme is not read by simulate",
      "config key [simulate] dealias is not read by simulate"]),
    # nor are the profile grid's extent and the fixed point's tolerance
    ("[profiles]\nalpha = 0.5\ngamma = 0.1\nn_max = 1\ntol = 1e-8\nz_max = 40.0\n",
     "profiles",
     ["config key [profiles] tol is not read by profiles",
      "config key [profiles] z_max is not read by profiles"]),
], ids=["misspelt", "removed", "removed-profiles"])
def test_cli_warns_about_a_key_that_does_nothing(tmp_path, capsys, text, command, expected):
    # a misspelt key, or one for a removed setting, would run the default
    # silently; the exit code stays
    code, found = _warnings_of(tmp_path, text, command)
    assert code == 0
    assert found == expected
    err = capsys.readouterr().err
    assert all(f"warning: {message}\n" in err for message in found)


@pytest.mark.parametrize("times,message", [
    ("n_times = 1\n", "no time of the grid lies before its last decade [0.1, 1]"),
    ("t_lo = 100.0\nt_hi = 10.0\nn_times = 5\n",
     "convergence_check needs a strictly increasing time grid"),
], ids=["one-time", "decreasing"])
def test_cli_heat_refuses_a_grid_that_cannot_show_stabilisation(tmp_path, capsys, times,
                                                                message):
    # every time of either grid lies in its last decade, so the running sup
    # would be compared with itself and read as stabilised
    cfg = tmp_path / "h.cfg"
    cfg.write_text("[heat]\nn = 1\nsigma = 1\nshape = gaussian\n" + times)
    assert main(["-c", str(cfg), "-o", str(tmp_path), "heat"]) == 1
    verdicts = json.loads((tmp_path / "manifest_heat.json").read_text())["verdicts"]
    assert verdicts["passed"] is False
    assert verdicts["error"].startswith(message)
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_heat_refuses_a_sigma_without_a_limit_profile(tmp_path, capsys):
    # the source is built before any work, so nothing is written
    cfg = tmp_path / "h.cfg"
    cfg.write_text("[heat]\nsigma = 0\n")
    assert main(["-c", str(cfg), "-o", str(tmp_path), "heat"]) == 1
    manifest = json.loads((tmp_path / "manifest_heat.json").read_text())
    assert manifest["verdicts"] == {"passed": False,
                                    "error": "sigma must be -1 or 1, got 0"}
    assert manifest["outputs"] == []
    assert "error: sigma must be -1 or 1, got 0" in capsys.readouterr().err


def test_cli_warns_about_a_section_no_subcommand_reads(tmp_path):
    code, found = _warnings_of(tmp_path, "[bounds]\nt_max = 50.0\nn_t = 12\n"
                                         "[simulat]\nt_final = 5.0\n", "bounds")
    assert code == 0
    assert found == ["config section [simulat] is read by no subcommand"]


def _readme_verify_config() -> str:
    readme = (Path(ptails.__file__).resolve().parents[2] / "README.md").read_text()
    block = readme.split("# verify.cfg\n", 1)[1]
    return block.split("\nptails -c", 1)[0]


def _benchmark_calls(monkeypatch):
    path = Path(ptails.__file__).resolve().parents[2] / "perfbench" / "workloads.py"
    if not path.exists():
        pytest.skip("no perfbench/ next to the package")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its dataclass
    spec.loader.exec_module(workloads)
    return [call for name in workloads.WORKLOADS
            for call in workloads.make_calls(name, 1001) if call.config is not None]


def test_cli_documented_and_benchmark_configs_read_every_key(tmp_path, monkeypatch):
    # each subcommand reads its whole config before the work, which stops
    # at once here
    from ptails import heat, profiles, verify

    def stop(*args, **kwargs):
        raise RuntimeError("stopped after reading the config")

    monkeypatch.setattr(verify, "build_model_from_trajectory", stop)
    monkeypatch.setattr(heat, "make_source", stop)
    monkeypatch.setattr(profiles, "graded_grid", stop)
    cases = [(_readme_verify_config(), ("verify",))]
    cases += [(call.config, (call.command, *call.extra)) for call in _benchmark_calls(monkeypatch)]
    assert {argv[0] for _, argv in cases} == {"verify", "profiles", "heat"}
    for i, (text, argv) in enumerate(cases):
        code, found = _warnings_of(tmp_path / str(i), text, *argv)
        assert code == 1 and found == [], (argv, found)


def test_sim_config_defaults_live_in_SimConfig_only():
    assert cli._sim_config(_Sections()) == SimConfig()


_TINY_SIMULATION = """
[grid]
n_points = 256
half_length = 60.0
[simulate]
t_final = 2.0
snapshots = 4
csv_snapshots = 2
"""


def test_cli_simulate_quadratic_nonlinearity_reading_b(tmp_path):
    # the [nonlinearity] section reaches the solver: a quadratic g with a b^2
    # term, whose source transforms b
    cfg = tmp_path / "q.cfg"
    cfg.write_text(_TINY_SIMULATION + "[nonlinearity]\nname = quadratic\ngbb = 0.5\n")
    assert main(["-c", str(cfg), "-o", str(tmp_path), "simulate"]) == 0
    manifest = json.loads((tmp_path / "manifest_simulate.json").read_text())
    assert manifest["config"]["nonlinearity"] == {"name": "quadratic", "gbb": "0.5"}
    assert manifest["verdicts"]["passed"] is True


def test_cli_unknown_nonlinearity_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_TINY_SIMULATION + "[nonlinearity]\nname = cubic\n")
    assert main(["-c", str(cfg), "-o", str(tmp_path), "simulate"]) == 2
    assert "unknown nonlinearity 'cubic'" in capsys.readouterr().err


def test_cli_verify_subcommand(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("""
[grid]
n_points = 4096
half_length = 450.0
[simulate]
t_final = 150.0
snapshots = 60
[verify]
d1_tolerance = 10.0
require_tail = false   # the tail ranking needs later times than this scale
""")
    code = main(["-c", str(cfg), "-o", str(tmp_path), "verify"])
    assert code == 0
    assert (tmp_path / "decay_fits.csv").exists()
    assert (tmp_path / "remainder_norms.csv").exists()
    manifest = json.loads((tmp_path / "manifest_verify.json").read_text())
    quantities = {f["quantity"] for f in manifest["verdicts"]["fits"]}
    assert {"+_N0_raw", "+_N1", "-_N0_raw", "-_N1"} <= quantities
    # 60 snapshots leave enough samples in the d1 fit's last decade
    assert manifest["verdicts"]["d1_fit_window_fallback"] == {"+": False, "-": False}
    assert manifest["verdicts"]["snapshots_requested"] == 60
    assert manifest["verdicts"]["snapshots_recorded"] == 50


def test_cli_verify_writes_every_fitted_series(tmp_path):
    # every fitted series is written, and the slope in decay_fits.csv is the
    # fit of the values written
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[grid]\nn_points = 2048\nhalf_length = 450.0\n"
                   "[simulate]\nt_final = 150.0\nsnapshots = 40\n"
                   "[verify]\nsubtract = full\nd1_tolerance = 10.0\n"
                   "require_tail = false\n")
    main(["-c", str(cfg), "-o", str(tmp_path), "verify"])
    with open(tmp_path / "remainder_norms.csv") as fh:
        rows = list(csv.DictReader(fh))
    with open(tmp_path / "decay_fits.csv") as fh:
        fits = {r["quantity"]: float(r["slope"]) for r in csv.DictReader(fh)}
    written = {r["quantity"] for r in rows}
    assert written == {f"{side}_{tag}" for side in "+-"
                       for tag in ("N0_raw", "N0", "N1", "N1_D")} == set(fits)
    for quantity in written:
        t = np.array([float(r["t"]) for r in rows if r["quantity"] == quantity])
        v = np.array([float(r["l2_norm"]) for r in rows if r["quantity"] == quantity])
        slope = np.polyfit(np.log(1.0 + t), np.log(v), 1)[0]
        assert slope == fits[quantity], quantity


@pytest.mark.parametrize("subtract", ["linear", "none"])
def test_cli_verify_refuses_a_subtraction_other_than_full(tmp_path, capsys, subtract):
    cfg = tmp_path / "v.cfg"
    cfg.write_text(f"[verify]\nsubtract = {subtract}\n")
    assert main(["-c", str(cfg), "-o", str(tmp_path), "verify"]) == 2
    assert capsys.readouterr().err == (f"config error: [verify] subtract = {subtract!r}: "
                                       "the pipeline subtracts 'full' only\n")


def test_cli_verify_refuses_a_drifting_run(tmp_path, monkeypatch):
    # a window snapshot whose mass drifts stops the run inside the consumer;
    # the command exits 1 with the reason in its manifest
    from ptails import solver
    from ptails.spectral import SpectralField, StateVector

    def drifting_run(config, nl, on_snapshot, initial=None):
        def feed(state, t):
            if t >= config.t_final / 2.0:
                bumped = state.first.coeffs.copy()
                bumped[0] += 3e-6 / (2.0 * state.grid.half_length)
                state = StateVector(SpectralField(state.grid, bumped), state.second,
                                    "physical")
            on_snapshot(state, t)
        return solver.run(config, nl, feed, initial)

    monkeypatch.setattr(cli, "run", drifting_run)
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[grid]\nn_points = 2048\nhalf_length = 450.0\n"
                   "[simulate]\nt_final = 150.0\nsnapshots = 40\n")
    assert main(["-c", str(cfg), "-o", str(tmp_path), "verify"]) == 1
    verdicts = json.loads((tmp_path / "manifest_verify.json").read_text())["verdicts"]
    assert verdicts["passed"] is False
    assert verdicts["error"].startswith(
        "mass of the characteristic field drifts from the matched value by ")
    assert not (tmp_path / "decay_fits.csv").exists()


def test_cli_verify_refuses_zero_data(tmp_path, monkeypatch):
    # zero data leave zero remainders with no slope to fit: the run exits 1
    # and its error names the first such series
    built = []
    build = verify.build_model_from_trajectory

    def keep(initial, nl):
        built.append(build(initial, nl))
        return built[-1]

    monkeypatch.setattr(verify, "build_model_from_trajectory", keep)
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[grid]\nn_points = 1024\nhalf_length = 450.0\n"
                   "[simulate]\nt_final = 150.0\nepsilon0 = 0.0\nsnapshots = 40\n")
    assert main(["-c", str(cfg), "-o", str(tmp_path), "verify"]) == 1
    verdicts = json.loads((tmp_path / "manifest_verify.json").read_text())["verdicts"]
    assert verdicts["passed"] is False
    assert verdicts["error"] == "+_N0_raw: slope fit requires positive values"
    assert built[0].coeffs.d[0] == (0.0, 0.0)
    assert not (tmp_path / "decay_fits.csv").exists()


def test_cli_semigroup_subcommand(tmp_path):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("[semigroup]\nn_k = 201\n")
    code = main(["-c", str(cfg), "-o", str(tmp_path), "semigroup"])
    assert code == 0
    assert (tmp_path / "semigroup_bounds.csv").exists()


def test_cli_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_keep_freed_heap_does_nothing_off_linux(monkeypatch):
    import ctypes

    def no_cdll(*args, **kwargs):
        raise AssertionError("C library loaded off Linux")
    monkeypatch.setattr(cli.sys, "platform", "win32")
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    cli._keep_freed_heap()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc mallopt")
def test_keep_freed_heap_reuses_freed_arrays():
    # after the CLI's heap setting, freeing and reallocating 1 MB arrays
    # reuses heap memory instead of faulting fresh pages in
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from ptails import cli
        cli._keep_freed_heap()
        def churn():
            a = np.ones(2 ** 16, dtype=complex)
            b = a * 2.0
            c = a + b
            del a, b, c
        for _ in range(5):
            churn()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(100):
            churn()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(ptails.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=60)
    assert int(out.stdout) < 1000


_SMALL_VERIFY = ("[grid]\nn_points = 2048\nhalf_length = 250.0\n"
                 "[simulate]\nt_final = 50.0\nsnapshots = 40\n")
_RELAXED_VERIFY = "[verify]\nd1_tolerance = 10.0\nrequire_tail = false\n"

# case -> (config text or None, arguments after -o, exit code)
_EXIT_CASES = {
    "special": (None, ("special", "--n", "2", "--points", "101"), 0),
    "profiles": ("[profiles]\nalpha = 0.5\ngamma = 0.1\nn_max = 1\n", ("profiles",), 0),
    # g0.csv is written, then the g_1 fixed point refuses |alpha*gamma| = 0.15
    "profiles-error": ("[profiles]\nalpha = 0.5\ngamma = 0.3\nn_max = 1\n",
                       ("profiles",), 1),
    "simulate": (_TINY_SIMULATION, ("simulate",), 0),
    "simulate-aborted": (_TINY_SIMULATION, ("simulate",), 1),
    "heat": ("[heat]\nt_lo = 1.0\nt_hi = 100.0\nn_times = 3\n", ("heat",), 0),
    "verify": (_SMALL_VERIFY + _RELAXED_VERIFY, ("verify",), 0),
    # the default d1 tolerance and tail requirement fail at this scale
    "verify-failed": (_SMALL_VERIFY, ("verify",), 1),
    "verify-aborted": (_SMALL_VERIFY + _RELAXED_VERIFY, ("verify",), 1),
    "bounds": ("[bounds]\nt_max = 50.0\nn_t = 12\n", ("bounds",), 0),
    "semigroup": ("[semigroup]\nn_k = 51\n", ("semigroup",), 0),
}


def test_cli_verify_outputs_do_not_depend_on_blas_threads(tmp_path):
    # above 10^4 points OpenBLAS splits a dot product between its threads,
    # which changes the rounding; the remainder pipeline's inner products
    # are numpy sums, so one and two BLAS threads write the same files
    (tmp_path / "v.cfg").write_text(
        "[grid]\nn_points = 16384\nhalf_length = 1250.0\n"
        "[simulate]\nt_final = 20.0\nsnapshots = 20\n" + _RELAXED_VERIFY)
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(ptails.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "ptails", "-c", "v.cfg", "-o", threads,
                        "verify"], cwd=tmp_path, env=env, capture_output=True,
                       timeout=120)
        manifest = json.loads((tmp_path / threads / "manifest_verify.json").read_text())
        del manifest["wall_seconds"]
        files = {p.name: p.read_bytes() for p in (tmp_path / threads).glob("*.csv")}
        runs.append((manifest, files))
    assert sorted(runs[0][1]) == ["decay_fits.csv", "remainder_norms.csv"]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("case", _EXIT_CASES)
def test_cli_exit_code_and_outputs_follow_the_manifest(tmp_path, monkeypatch, case):
    # the exit code is 0 exactly when the manifest's "passed" verdict is
    # true, and the files in the output directory besides the manifest are
    # the manifest's outputs, also when a run fails, aborts or raises
    text, argv, expected = _EXIT_CASES[case]
    if case.endswith("-aborted"):
        step, steps = solver.Stepper.step, []

        def failing_step(self, state):
            steps.append(step(self, state))
            if len(steps) == 3:
                steps[-1].first.coeffs[:] = np.nan
            return steps[-1]

        monkeypatch.setattr(solver.Stepper, "step", failing_step)
    config = []
    if text is not None:
        (tmp_path / "c.cfg").write_text(text)
        config = ["-c", str(tmp_path / "c.cfg")]
    out = tmp_path / "out"
    code = main([*config, "-o", str(out), *argv])
    manifest_name = f"manifest_{argv[0]}.json"
    manifest = json.loads((out / manifest_name).read_text())
    verdicts = manifest["verdicts"]
    assert code == (0 if verdicts.get("passed") is True else 1) == expected
    written = sorted(p.name for p in out.iterdir() if p.name != manifest_name)
    assert written == manifest["outputs"]
    if case.endswith("-aborted"):
        assert "passed" not in verdicts and written == []
        assert verdicts["aborted"].startswith("non-finite spectrum at step 3 ")
    if case.endswith("-failed"):
        assert verdicts["passed"] is False and "error" not in verdicts
    if case.endswith("-error"):
        assert written == ["g0.csv"] and "error" in verdicts
