"""ptails benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ptails source checkout; the package is imported from
``src/``.  The untraced runs repeat the workload, one child process at a
time, until ``S`` seconds of workload wall time are measured (at least once),
after five set-up-only child processes.  ``--trace 1`` adds two traced
repetitions and reports the per-layer metrics instead of the end-to-end ones.
The last line of standard output is the JSON result.  ``--record`` stores
the outputs of this seed as the reference for later runs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from workloads import WORKLOADS, make_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "out"
SETUP_CHILDREN = 5
TRACED_REPS = 2
DEADLINE_S = 170.0

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# per-layer metric -> workloads on which its span must record calls
REQUIRED_SPANS = {
    "spectral.fft": ("flagship_t50",),
    "spectral.symmetrized": ("flagship_t50",),
    "spectral.norms": ("flagship_t50",),
    "solver.run": ("flagship_t50",),
    "solver.step": ("flagship_t50",),
    "solver.source": ("flagship_t50",),
    "solver.apply": ("flagship_t50",),
    "solver.frame": ("flagship_t50",),
    "nonlinearity.source": ("flagship_t50",),
    "nonlinearity.admissibility": ("flagship_t50",),
    "semigroup.propagator_cs": ("flagship_t50",),
    "semigroup.intertwining_defect": ("analytic",),
    "semigroup.kernel_bound_check": ("analytic",),
    "special.fn_value": ("analytic",),
    "profiles.gn_fixed_point": ("analytic",),
    "profiles.build_expansion_model": ("flagship_t50",),
    "heat.duhamel": ("flagship_t50", "analytic"),
    "heat.convergence_check": ("analytic",),
    "verify.remainder_pipeline": ("flagship_t50",),
    "verify.build_model": ("flagship_t50",),
    "verify.tail_precedence": ("flagship_t50",),
    "verify.bound_check": ("analytic",),
    "cli.write": ("analytic",),
}

# counts that must repeat exactly between the two traced repetitions
EXACT_COUNTERS = ("spectral.fft.calls", "solver.step.calls", "heat.duhamel.modes",
                  "profiles.gn_fixed_point.iterations", "solver.run.minflt")


class BenchError(Exception):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_ms() -> float:
    """Median time of a fixed numpy FFT kernel: a machine-speed reference."""
    import numpy as np
    x = np.random.default_rng(0).standard_normal(2 ** 15) + 0j
    times = []
    for _ in range(60):
        t0 = time.perf_counter()
        np.fft.ifft(np.fft.fft(x))
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "child_env": CHILD_ENV,
    }


ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_address_space():
    """Child pre-exec hook: turn off address-space randomisation for this
    process only, so that page-fault counts repeat between runs."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)


class Runner:
    """Starts measured child processes one at a time, under one deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = {**os.environ, **CHILD_ENV}
        self.env.pop("PYTHONPATH", None)

    def child(self, mode: str, calls=(), trace: bool = False) -> dict:
        self.count += 1
        tag = f"{mode}{self.count}"
        spec = {"root": str(ROOT), "mode": mode, "calls": list(calls), "trace": trace,
                "result": str(self.workdir / f"{tag}.result.json"),
                "spans": str(self.workdir / f"{tag}.spans.json")}
        spec_path = self.workdir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        log_path = self.workdir / f"{tag}.log"
        with open(log_path, "w") as log:
            t_spawn = now()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=str(ROOT), preexec_fn=_fixed_address_space)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - now()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"child {tag} passed the {DEADLINE_S:.0f} s deadline")
        if code != 0:
            tail = log_path.read_text()[-2000:]
            raise BenchError(f"child {tag} exited {code}:\n{tail}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        src = ROOT / "src"
        if not Path(result["ptails_file"]).is_relative_to(src):
            raise BenchError(f"ptails imported from {result['ptails_file']}, not {src}")
        result["setup_s"] = result["t_ready"] - t_spawn
        return result


def write_inputs(workdir: Path, calls) -> list:
    """Write the calls' config files; returns (call, config path or None) pairs."""
    out = []
    for i, call in enumerate(calls):
        cfg = None
        if call.config is not None:
            cfg = workdir / f"{i:02d}_{call.command}.cfg"
            cfg.write_text(call.config)
        out.append((call, cfg))
    return out


def run_rep(runner: Runner, inputs, rep_dir: Path, trace: bool, refs, seed: int):
    """One workload repetition; returns (child result, outputs, problems)."""
    rep_dir.mkdir(parents=True)
    argvs = []
    for i, (call, cfg) in enumerate(inputs):
        argvs.append(call.argv(cfg, rep_dir / f"{i:02d}_{call.label}"))
    res = runner.child("work", argvs, trace)
    outputs, problems = {}, {}
    for i, ((call, _cfg), rec) in enumerate(zip(inputs, res["calls"])):
        if rec["error"] is not None or rec["code"] not in (0, 1):
            problems[call.label] = [f"exit {rec['code']}: {rec['error']}"]
            continue
        try:
            out = check.extract(call.command, rep_dir / f"{i:02d}_{call.label}", rec["code"])
        except (OSError, KeyError, ValueError) as exc:
            problems[call.label] = [f"unreadable outputs: {exc!r}"]
            continue
        outputs[call.label] = out
        problems[call.label] = check.check(
            out, None if refs is None else refs.for_call(seed, call.label))
    return res, outputs, problems


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a sample; 0.0 for no samples."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def layer_metrics(summary: dict) -> dict:
    def span(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "durations": [], "counts": {}})

    m = {}
    for name in REQUIRED_SPANS:
        s = span(name)
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.self_s"] = s["self_s"]
        for key, val in s["counts"].items():
            m[f"{name}.{key}"] = val
    steps = span("solver.step")["durations"]
    m["solver.step.p50_ms"] = 1e3 * quantile(steps, 0.50)
    m["solver.step.p99_ms"] = 1e3 * quantile(steps, 0.99)
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's outputs as the reference")
    args = p.parse_args(argv)
    deadline = now() + DEADLINE_S

    if not (ROOT / "src" / "ptails" / "cli.py").is_file():
        print(f"error: no ptails sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    workdir = RUNS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    refs = check.References(HERE / "reference" / f"{args.workload}.json")
    inputs = write_inputs(workdir, make_calls(args.workload, args.seed))

    env = environment()
    env["probe_ms_before"] = probe_ms()
    runner = Runner(workdir, deadline)
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUP_CHILDREN)]

    reps, failures, recorded = [], [], None
    measured = 0.0
    while not reps or measured < args.seconds:
        tag = f"rep{len(reps)}"
        res, outputs, problems = run_rep(runner, inputs, workdir / tag, False,
                                         None if args.record else refs, args.seed)
        reps.append(res)
        measured += res["t_end"] - res["t_begin"]
        recorded = recorded or outputs
        failures += [(tag, label, ps) for label, ps in problems.items() if ps]
    traced = []
    for _ in range(TRACED_REPS if args.trace else 0):
        tag = f"traced{len(traced)}"
        res, _outputs, problems = run_rep(runner, inputs, workdir / tag, True,
                                          None if args.record else refs, args.seed)
        traced.append(res)
        failures += [(tag, label, ps) for label, ps in problems.items() if ps]
    env["probe_ms_after"] = probe_ms()
    (workdir / "env.json").write_text(json.dumps(env, indent=1) + "\n")

    all_reps = reps + traced
    attempted = sum(len(r["calls"]) for r in all_reps)
    failed = len(failures)
    for rep, label, problems in failures:
        for problem in problems:
            print(f"output check failed: {rep} {label}: {problem}", file=sys.stderr)

    if args.record:
        if failures:
            raise BenchError("refusing to record outputs that fail their gates")
        refs.record(args.seed, recorded)

    walls = [r["t_end"] - r["t_begin"] for r in reps]
    setups += [r["setup_s"] for r in all_reps]
    metrics = {}
    if not args.trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in reps),
        }
    else:
        summaries = [layer_metrics(r["trace"]) for r in traced]
        for key in EXACT_COUNTERS:
            vals = [s.get(key, 0) for s in summaries]
            if len(set(vals)) != 1:
                raise BenchError(f"exact counter {key} differs between traced runs: {vals}")
        for name, workloads in REQUIRED_SPANS.items():
            if args.workload in workloads and summaries[0][f"{name}.calls"] == 0:
                raise BenchError(f"span {name} recorded no calls on {args.workload}")
        for m in spec["per_layer"]:
            # counts repeat between traced runs; times are averaged over them
            vals = [s.get(m["name"], 0) for s in summaries]
            metrics[m["name"]] = vals[0] if m["unit"] in ("count", "B") else \
                statistics.median(vals)
        metrics.update({
            "proc.cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "proc.sys_s": statistics.median(r["sys_s"] for r in reps),
            "proc.minflt": statistics.median(r["minflt"] for r in reps),
            "trace.overhead_frac": statistics.median(
                r["t_end"] - r["t_begin"] for r in traced) / statistics.median(walls) - 1.0,
            "env.probe_ms": statistics.median([env["probe_ms_before"],
                                               env["probe_ms_after"]]),
        })

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} untraced, "
          f"{len(traced)} traced repetitions, {len(setups)} set-ups")
    for name, val in metrics.items():
        print(f"  {name:40s} {val:>16.6g} {units[name]}")
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} ratio"
          f"  ({failed}/{attempted} CLI calls)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
