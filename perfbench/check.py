"""Output check: the science outputs of each CLI call against gates and references.

``extract`` reads the manifests (and, for profiles, the tables) one call
wrote and returns ``{"code": exit code, "values": {name: value}}``.  ``check``
returns a list of problems, empty when the outputs are correct:

* gates: residual-type outputs are held to the CLI's own thresholds, never
  compared for equality;
* references: outputs recorded at a known-good commit are compared with the
  tolerances below.  For a seed without a recording, only the outputs that
  are the same for every recorded seed (exit codes, verdicts, seed-free
  constants) are compared.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SLOPE_ABS = 1e-3        # decay and tail slopes, absolute
D1_REL = 1e-4           # d_1 fit and analytic value, relative
CONST_REL = 1e-6        # measured constants, relative ...
CONST_ABS = 1e-12       # ... with an absolute floor
SPECIAL_MASS_ABS = 1e-10
MASS_DRIFT_PER_1E3_STEPS = 1e-9


def _manifest(outdir: Path, command: str) -> dict:
    with open(outdir / f"manifest_{command}.json") as fh:
        return json.load(fh)


def _column_sup(path: Path, column: str) -> float:
    with open(path, newline="") as fh:
        return max(abs(float(row[column])) for row in csv.DictReader(fh))


def extract(command: str, outdir: Path, code: int) -> dict:
    m = _manifest(outdir, command)
    v = m["verdicts"]
    values = {"passed": v.get("passed")}
    if command == "verify":
        steps = int(math.ceil(float(m["config"]["simulate"]["t_final"])
                              / _resolved_dt(m["config"]) - 1e-12))
        for fit in v["fits"]:
            values[f"slope[{fit['quantity']}]"] = fit["slope"]
            values[f"passed[{fit['quantity']}]"] = fit["passed"]
        for side in "+-":
            values[f"d1_fit[{side}]"] = v["d1_fit"][side]
            values[f"d1_analytic[{side}]"] = v["d1_analytic"][side]
        values.update({
            "tail_ahead_slope": v["tail_ahead_slope"],
            "tail_behind_slope": v["tail_behind_slope"],
            "tail_passed": v["tail_passed"],
            "mass_error": v["mass_error"],
            "n_steps": steps,
        })
    elif command == "profiles":
        values.update({k: val for k, val in v.items() if k != "passed"})
        for path in outdir.glob("g*.csv"):
            stem = path.stem            # g0, g1p, g1m, ...
            col = "g0" if stem == "g0" else "gn"
            values[f"sup[{stem}]"] = _column_sup(path, col)
            if stem != "g0":
                values[f"sup[R{stem[1:]}]"] = _column_sup(path, "Rn")
    elif command == "heat":
        for key in ("weighted_sup", "weighted_sup_d", "slope_l2", "measured_C",
                    "stabilized"):
            values[key] = v[key]
    elif command == "bounds":
        for name, c in v["kernels"].items():
            values[f"kernel[{name}]"] = c
    elif command == "semigroup":
        values.update({"kernel_C": v["kernel_C"], "defect_sup": v["defect_sup"]})
    elif command == "special":
        values.update({"mass": v["mass"], "ode_residual_sup": v["ode_residual_sup"]})
    else:
        raise ValueError(f"no output check for command {command!r}")
    return {"code": code, "values": values}


def _resolved_dt(config: dict) -> float:
    # SimConfig.resolved_dt for a config without an explicit dt
    n = int(config["grid"]["n_points"])
    half_length = float(config["grid"]["half_length"])
    return min(0.5 * 2.0 * half_length / n, 0.1)


def _gate(key: str, values: dict):
    """The CLI's threshold test for a residual-type output, or None.

    Gated outputs are never compared with references: their size is
    numerical noise, and any value inside the gate is correct.
    """
    if key == "mass_error":
        limit = MASS_DRIFT_PER_1E3_STEPS * max(1.0, values.get("n_steps", 0) / 1000.0)
        return lambda x: x <= limit
    if key in ("g0_residual", "g0_mass_error", "ode_residual_sup"):
        return lambda x: x < 1e-8
    if key.endswith("_residual"):
        return lambda x: x < 1e-6
    if key.endswith("_mass") and key[0] in "gR":
        return lambda x: abs(x) < 1e-6
    if key.endswith("_iterations"):
        return lambda x: x <= 50
    return None


def _tolerance(key: str):
    """(absolute, relative) tolerance for a key, or None for exact equality."""
    if "slope" in key:
        return SLOPE_ABS, 0.0
    if key.startswith("d1_"):
        return 0.0, D1_REL
    if key == "mass":
        return SPECIAL_MASS_ABS, 0.0
    if key.startswith(("weighted_sup", "measured_C", "kernel", "defect_sup", "sup[")):
        return CONST_ABS, CONST_REL
    return None


def _agree(key: str, got, want) -> bool:
    tol = _tolerance(key)
    if tol is None or got is None or want is None or isinstance(want, bool):
        return got == want
    atol, rtol = tol
    return abs(got - want) <= atol + rtol * abs(want)


def invariant_reference(recorded: list[dict]) -> dict:
    """The part of a call's outputs that agrees across all recorded seeds."""
    first = recorded[0]
    values = {key: val for key, val in first["values"].items()
              if all(key in r["values"] and _agree(key, r["values"][key], val)
                     for r in recorded[1:])}
    code = first["code"] if all(r["code"] == first["code"] for r in recorded) else None
    return {"code": code, "values": values}


def check(outputs: dict, reference: dict | None) -> list[str]:
    values = outputs["values"]
    problems = [f"{key} = {val!r} fails its gate" for key, val in values.items()
                if (gate := _gate(key, values)) is not None and not gate(val)]
    if reference is None:
        return problems
    if reference["code"] is not None and outputs["code"] != reference["code"]:
        problems.append(f"exit code {outputs['code']}, recorded {reference['code']}")
    for key, want in reference["values"].items():
        if _gate(key, values) is not None:
            continue
        got = values.get(key)
        if not _agree(key, got, want):
            problems.append(f"{key} = {got!r}, recorded {want!r}")
    return problems


class References:
    """Recorded outputs for one workload: ``{seed: {label: outputs}}``."""

    def __init__(self, path: Path):
        self.path = path
        self.data = {"seeds": {}, "held_out": []}
        if path.exists():
            with open(path) as fh:
                self.data = json.load(fh)

    def for_call(self, seed: int, label: str) -> dict | None:
        seeds = self.data["seeds"]
        if str(seed) in seeds:
            return seeds[str(seed)][label]
        recorded = [s[label] for s in seeds.values() if label in s]
        return invariant_reference(recorded) if recorded else None

    def record(self, seed: int, outputs: dict):
        self.data["seeds"][str(seed)] = outputs
        self.data["seeds"] = dict(sorted(self.data["seeds"].items(),
                                         key=lambda kv: int(kv[0])))
        with open(self.path, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
            fh.write("\n")
