"""One measured ptails process: import the package, then run the CLI calls.

Run by ``run.py`` as ``python3 perfbench/child.py <spec.json>``.  The spec
names the checkout root, the mode (``setup`` stops after the import), the
CLI argument lists, whether to trace, and where to write the result.  Times
are CLOCK_MONOTONIC readings, comparable with the parent's.
"""

import json
import os
import resource
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _usage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "sys_s": ru.ru_stime,
            "minflt": ru.ru_minflt, "maxrss_kb": ru.ru_maxrss}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    from ptails import cli
    t_ready = _now()
    result = {"t_ready": t_ready,
              "ptails_file": os.path.abspath(sys.modules["ptails"].__file__)}
    if spec["mode"] == "setup":
        with open(spec["result"], "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    calls = []
    u0 = _usage()
    t_begin = _now()
    for argv in spec["calls"]:
        t0 = _now()
        try:
            code, error = cli.main(argv), None
        except Exception:   # a raising call is a failed call, not a crash
            code, error = None, traceback.format_exc(limit=5)
        calls.append({"code": code, "error": error, "wall_s": _now() - t0})
    t_end = _now()
    u1 = _usage()
    result.update({
        "t_begin": t_begin,
        "t_end": t_end,
        "calls": calls,
        "cpu_s": u1["cpu_s"] - u0["cpu_s"],
        "sys_s": u1["sys_s"] - u0["sys_s"],
        "minflt": u1["minflt"] - u0["minflt"],
        "maxrss_mb": u1["maxrss_kb"] / 1024.0,
    })
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["spans"])
        result["trace"] = tracer.summary()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
