"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads analytic --seeds 1-10

Runs ``run.py`` once per (workload, seed), untraced, one at a time, and prints
per metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
interquartile distance as a share of the median, against a third of the
metric's bound from ``BENCHMARK.json``.  Exits 1 if a run fails, reports
incorrect outputs, or a spread (``setup_s`` excepted) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args()
    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
                + f", failed_frac={result['failed'] / result['attempted']:.3g}"
                + f" (correct={result['correct']})", flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "OVER BOUND")
            if verdict == "OVER BOUND" and m["name"] != "setup_s":
                ok = False
            print(f"{workload:16s} {m['name']:12s} median {med:10.4f} {m['unit']:3s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:7.4f} "
                  f"bound/3 {m['bound'] / 3:6.4f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
