"""Tests of the benchmark's own logic: output check, workloads, span tracer.

    python3 -m pytest -q perfbench/tests
"""

import copy
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, draw_parameters, make_calls  # noqa: E402


def _refs(workload):
    refs = check.References(HERE / "reference" / f"{workload}.json")
    assert refs.data["seeds"], f"no recorded outputs for {workload}"
    return refs


def _recorded(workload, label):
    refs = _refs(workload)
    seed = int(next(iter(refs.data["seeds"])))
    return refs, seed, refs.for_call(seed, label)


def test_recorded_verify_outputs_pass_and_shifted_slope_fails():
    _refs_, _seed, ref = _recorded("flagship_t50", "verify")
    assert check.check(copy.deepcopy(ref), ref) == []
    for key in [k for k in ref["values"] if k.startswith("slope[")]:
        out = copy.deepcopy(ref)
        out["values"][key] += 2e-3
        problems = check.check(out, ref)
        assert len(problems) == 1 and key in problems[0]
        out["values"][key] = ref["values"][key] + 5e-4
        assert check.check(out, ref) == []


def test_d1_relative_tolerance():
    _refs_, _seed, ref = _recorded("flagship_t50", "verify")
    out = copy.deepcopy(ref)
    out["values"]["d1_fit[+]"] *= 1 + 2e-4
    assert check.check(out, ref)
    out["values"]["d1_fit[+]"] = ref["values"]["d1_fit[+]"] * (1 + 5e-5)
    assert check.check(out, ref) == []


def test_verdicts_and_exit_code_compare_exactly():
    _refs_, _seed, ref = _recorded("flagship_t50", "verify")
    assert ref["code"] == 1      # d1 and tail checks fail at this horizon
    out = copy.deepcopy(ref)
    out["code"] = 0
    assert check.check(out, ref)
    out = copy.deepcopy(ref)
    out["values"]["tail_passed"] = not ref["values"]["tail_passed"]
    assert check.check(out, ref)


def test_residuals_are_gated_not_compared():
    _refs_, _seed, ref = _recorded("analytic", "profiles+")
    out = copy.deepcopy(ref)
    out["values"]["g1_residual"] = 1e-7          # differs, but inside the gate
    out["values"]["R2_mass"] = -3e-7
    assert check.check(out, ref) == []
    out["values"]["g1_residual"] = 2e-6          # outside the CLI gate
    assert check.check(out, ref)


def test_mass_drift_gate_scales_with_steps():
    values = {"mass_error": 1.5e-9, "n_steps": 1000}
    assert check.check({"code": 1, "values": values}, None)
    values["n_steps"] = 2000
    assert check.check({"code": 1, "values": values}, None) == []


def test_unrecorded_seed_compares_only_invariant_outputs():
    refs = _refs("analytic")
    unrecorded = max(int(s) for s in refs.data["seeds"]) + 12345
    inv = refs.for_call(unrecorded, "bounds")          # seed-free: all constants
    full = refs.for_call(int(next(iter(refs.data["seeds"]))), "bounds")
    assert inv["values"].keys() == full["values"].keys()
    inv = refs.for_call(unrecorded, "profiles+")        # alpha, gamma vary
    assert not any(k.startswith("sup[") for k in inv["values"])
    assert inv["code"] == 0


def test_held_out_seed_is_recorded():
    for workload in WORKLOADS:
        refs = _refs(workload)
        assert refs.data["held_out"]
        assert all(str(s) in refs.data["seeds"] for s in refs.data["held_out"])


def test_parameters_follow_the_seed_and_stay_contractive():
    for seed in range(50):
        p = draw_parameters(seed)
        assert p == draw_parameters(seed)
        assert 0.04 <= p["epsilon0"] <= 0.06 and 0.2 <= p["b_fraction"] <= 0.4
        assert abs(p["alpha"] * p["gamma"]) <= 0.1
    assert draw_parameters(1) != draw_parameters(2)


def test_seed_changes_no_work_size():
    for workload in WORKLOADS:
        a, b = make_calls(workload, 1), make_calls(workload, 2)
        assert [(c.label, c.command, c.extra) for c in a] == \
               [(c.label, c.command, c.extra) for c in b]


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap("outer", body)()
    s = tracer.summary()
    assert s["inner"]["calls"] == 2 and s["outer"]["calls"] == 1
    assert s["inner"]["self_s"] >= 0.04
    assert 0.01 <= s["outer"]["self_s"] < 0.035
    outer_id = next(sp[1] for sp in tracer.spans if sp[0] == "outer")
    assert all(sp[2] == outer_id for sp in tracer.spans if sp[0] == "inner")


def test_tracer_records_failed_calls():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summary()["boom"]["calls"] == 1
