"""Spans around the calls into each ptails module, recorded from outside.

``Tracer.install()`` replaces the listed public functions and methods with
wrappers that record one span per call: name, parent span, start, end, self
time and per-call counts.  Functions that other modules import by name are
replaced in every ptails module that binds them; methods are replaced on the
class.  Spans stay in memory until ``dump``.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


# span name -> (module, attribute path, per-call counter); a dotted attribute
# path names a method on a class.  The counter maps (args, kwargs, result) to
# a dict of extra counts for the span.
TARGETS = [
    ("spectral.symmetrized", "ptails.spectral", "SpectralField.symmetrized", None),
    ("spectral.norms", "ptails.spectral", "norms", None),
    ("solver.run", "ptails.solver", "run", None),
    ("solver.step", "ptails.solver", "Stepper.step", None),
    ("solver.source", "ptails.solver", "Stepper.source", None),
    ("solver.apply", "ptails.solver", "Stepper._apply", None),
    ("solver.frame", "ptails.solver", "to_characteristic_frame", None),
    ("nonlinearity.source", "ptails.nonlinearity", "Nonlinearity.source", None),
    ("nonlinearity.admissibility", "ptails.nonlinearity",
     "Nonlinearity.admissibility", None),
    ("semigroup.propagator_cs", "ptails.semigroup", "propagator_cs", None),
    ("semigroup.intertwining_defect", "ptails.semigroup", "intertwining_defect", None),
    ("semigroup.kernel_bound_check", "ptails.semigroup", "kernel_bound_check", None),
    ("special.fn_value", "ptails.special", "fn_value",
     lambda a, kw, r: {"points": _size(a[1] if len(a) > 1 else kw["z"])}),
    ("profiles.gn_fixed_point", "ptails.profiles", "gn_fixed_point",
     lambda a, kw, r: {"iterations": int(r[2].iterations)}),
    ("profiles.build_expansion_model", "ptails.profiles", "build_expansion_model", None),
    ("heat.duhamel", "ptails.heat", "_duhamel_integral",
     lambda a, kw, r: {"modes": _size(a[0] if a else kw["k"])}),
    ("heat.convergence_check", "ptails.heat", "convergence_check", None),
    ("verify.remainder_pipeline", "ptails.verify", "remainder_pipeline",
     lambda a, kw, r: {"snapshots": len((a[0] if a else kw["traj"]).times)}),
    ("verify.build_model", "ptails.verify", "build_model_from_trajectory", None),
    ("verify.tail_precedence", "ptails.verify", "tail_precedence_check", None),
    ("verify.bound_check", "ptails.verify", "bound_check", None),
    ("cli.write", "ptails.cli", "_write_csv",
     lambda a, kw, r: {"bytes": os.path.getsize(a[0] if a else kw["path"])}),
    ("cli.write", "ptails.config", "RunManifest.write",
     lambda a, kw, r: {"bytes": os.path.getsize(a[1] if len(a) > 1 else kw["path"])}),
]

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")

# spans whose page-fault count is recorded (getrusage before and after)
MINFLT_SPANS = {"solver.run"}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, id, parent, t0, t1, self_s, counts]
        self._stack = []       # [span id, child seconds] of open spans
        self._restore = []     # (owner, attribute, original)

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        minflt = name in MINFLT_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)   # reserve the id in call order
            frame = [sid, 0.0]
            stack.append(frame)
            flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if minflt else 0
            t0 = clock()
            counts = {}
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                if minflt:
                    counts["minflt"] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                                        - flt0)
                spans[sid] = [name, sid, parent, t0, t1, (t1 - t0) - frame[1], counts]
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for name, modname, path, counter in TARGETS:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], counter))
                continue
            original = getattr(mod, path)
            wrapper = self.wrap(name, original, counter)
            # rebind every module-level name that refers to the original,
            # including `from .x import f` copies in other ptails modules
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] != "ptails":
                    continue
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapper)
        fft_counter = lambda a, kw, r: {"points": _size(a[0] if a else kw["x"])}
        for modname in FFT_MODULES:
            mod = importlib.import_module(modname)
            for fname in FFT_FUNCTIONS:
                self._patch(mod, fname,
                            self.wrap("spectral.fft", getattr(mod, fname), fft_counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, self seconds, durations and summed counts."""
        out = {}
        for name, _sid, _parent, t0, t1, self_s, counts in self.spans:
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [],
                                      "counts": {}})
            s["calls"] += 1
            s["self_s"] += self_s
            s["durations"].append(t1 - t0)
            for key, val in counts.items():
                s["counts"][key] = s["counts"].get(key, 0) + val
        return out

    def dump(self, path):
        keys = ("name", "id", "parent", "t0", "t1", "self_s", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
