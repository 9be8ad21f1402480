"""Workload definitions: seed -> physical parameters -> config files + CLI calls.

Every workload is a list of ``Call``s that one child process runs in order
through ``ptails.cli.main``.  The program sees only the generated config files
and command-line arguments; the seed never reaches it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Call:
    label: str          # stable name used by the output check and references
    command: str        # ptails subcommand, e.g. "verify"
    config: str | None  # text of the config file, or None for no -c
    extra: tuple = ()   # arguments after the subcommand

    def argv(self, config_path: Path | None, outdir: Path) -> list[str]:
        argv = []
        if config_path is not None:
            argv += ["-c", str(config_path)]
        return argv + ["-o", str(outdir), self.command, *self.extra]


def draw_parameters(seed: int) -> dict:
    """Physical parameters drawn from the seed.

    All draws stay inside the contraction regime |alpha*gamma| <= 0.1 and none
    of them changes grid sizes, step counts or snapshot counts.
    """
    rng = random.Random(seed)
    return {
        "epsilon0": round(rng.uniform(0.04, 0.06), 6),
        "b_fraction": round(rng.uniform(0.2, 0.4), 6),
        "alpha": round(rng.uniform(0.4, 0.5), 6),
        "gamma": round(rng.uniform(0.15, 0.2), 6),
    }


def _verify_config(p: dict, n_points: int, half_length: float, t_final: float,
                   snapshots: int) -> str:
    return (f"[grid]\nn_points = {n_points}\nhalf_length = {half_length!r}\n\n"
            f"[simulate]\nt_final = {t_final!r}\nepsilon0 = {p['epsilon0']!r}\n"
            f"b_fraction = {p['b_fraction']!r}\nsnapshots = {snapshots}\n\n"
            f"[verify]\nsubtract = full\n")


def _flagship(p: dict) -> list[Call]:
    # the flagship grid and dt (2^15 points, L = 2500) at a twentieth of its
    # t_final = 1000 horizon: 656 IF-RK4 steps
    return [Call("verify", "verify", _verify_config(p, 32768, 2500.0, 50.0, 100))]


HEAT_CASES = ((1, 1, "gaussian"), (2, 1, "gaussian"), (1, -1, "dgaussian"))


def _analytic(p: dict) -> list[Call]:
    # the CLI default gamma = 0.25 with alpha = 0.5 is outside the contraction
    # regime, so gamma is always set explicitly
    prof = (f"[profiles]\nalpha = {p['alpha']!r}\ngamma = {p['gamma']!r}\n"
            f"n_max = 4\n")
    calls = [Call(f"profiles{s}", "profiles", prof, ("--sign", s)) for s in "+-"]
    for n, sigma, shape in HEAT_CASES:
        cfg = (f"[heat]\nn = {n}\nsigma = {sigma}\nshape = {shape}\n"
               f"t_lo = 10.0\nt_hi = 1000.0\nn_times = 25\n")
        calls.append(Call(f"heat_n{n}_s{sigma:+d}_{shape}", "heat", cfg))
    calls.append(Call("bounds", "bounds", None))
    calls.append(Call("semigroup", "semigroup", None))
    for n in range(1, 5):
        calls.append(Call(f"special_n{n}", "special", None,
                          ("--n", str(n), "--points", "2001")))
    return calls


WORKLOADS = {
    "flagship_t50": _flagship,
    "analytic": _analytic,
}


def make_calls(workload: str, seed: int) -> list[Call]:
    return WORKLOADS[workload](draw_parameters(seed))
