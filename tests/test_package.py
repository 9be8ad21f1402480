"""Guards on the shape of the package: no public name, method or dataclass
field that nothing in it uses, no more settable values or config keys than
today, one home for each shared numerical primitive, one place that forms
the propagator's entries, every call the benchmark tracer wraps still
resolves, and the command loads no heavy scipy subpackage."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import ptails
from ptails import cli

PACKAGE = Path(ptails.__file__).resolve().parent
SPANS = PACKAGE.parents[1] / "perfbench" / "spans.py"

# Public names, methods and fields kept although nothing in the package
# calls or reads them, with the reason.
UNUSED_BY_DESIGN = {
    # the fixed point's observed contraction, which the profile tests read
    "profiles.FixedPointInfo.contraction_factor",
    # the step loop's wall time, which acceptance criterion 5a bounds
    "solver.TrajectoryRecord.wall_seconds",
}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names and attribute names read anywhere in the tree, outside the
    subtree ``skip`` and outside ``__all__``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_is_used_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            used = any(node.name in _references(t, skip=node if m == module else None)
                       for m, t in trees.items())
            if not used and f"{module}.{node.name}" not in UNUSED_BY_DESIGN:
                unused.append(f"{module}.{node.name}")
    assert unused == [], f"public names nothing in the package uses: {unused}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _public_members(cls: ast.ClassDef):
    """Public methods and properties of a class, and its fields if it is a
    dataclass, as (name, node) pairs."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and _is_dataclass(cls):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, node


def _attribute_reads(tree: ast.AST, self_only: bool = False) -> Counter:
    """Attribute names read in the tree, or only those read off ``self``."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and (not self_only or getattr(node.value, "id", None) == "self"))


def _unread_members(trees: dict) -> list:
    """``module.Class.member`` of every public member of a public class that
    no code in ``trees`` (module name -> syntax tree) reads."""
    reads = sum((_attribute_reads(t) for t in trees.values()), Counter())
    classes = [node for t in trees.values() for node in ast.walk(t)
               if isinstance(node, ast.ClassDef)]
    self_reads = {cls: _attribute_reads(cls, self_only=True) for cls in classes}
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for name, node in _public_members(cls):
                # reads inside the member itself (recursion) do not count, nor
                # does a ``self.<name>`` read inside another class, which reads
                # that class's own member of the same name
                elsewhere = sum(self_reads[other][name] for other in classes
                                if other is not cls)
                if reads[name] - _attribute_reads(node)[name] - elsewhere <= 0:
                    unread.append(f"{module}.{cls.name}.{name}")
    return unread


def test_every_public_member_is_read_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    unread = [m for m in _unread_members(trees) if m not in UNUSED_BY_DESIGN]
    assert unread == [], f"public methods and fields nothing in the package reads: {unread}"


def test_member_guard_ignores_a_self_read_in_another_class():
    # B reads its own wall_seconds, which must not count as a read of A's
    source = textwrap.dedent("""
        @dataclass
        class A:
            wall_seconds: float
            mass: float

        @dataclass
        class B:
            wall_seconds: float

            def report(self):
                return self.wall_seconds

        def use(a, b):
            return a.mass + b.report()
    """)
    assert _unread_members({"m": ast.parse(source)}) == ["m.A.wall_seconds"]


# Parameters with a default plus dataclass fields with a default, in the
# whole package.  Raise it only with a new value that a caller needs, and
# lower it with every one removed, so that no slack builds up.
SETTABLE_VALUES = 37


def _settable_values() -> int:
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                             for stmt in node.body)
    return count


def test_settable_values_do_not_grow():
    count = _settable_values()
    assert count == SETTABLE_VALUES, (
        f"{count} settable values, not the {SETTABLE_VALUES} recorded: a new "
        "parameter or field default, or a removed one that SETTABLE_VALUES "
        "does not reflect yet")


# (section, key) pairs the command reads from a config file, held to the
# same rule as SETTABLE_VALUES
CONFIG_KEYS = 29


def _config_keys() -> set:
    """The constant (section, key) arguments of every ``get_typed`` call in
    ``cli``, plus the simulation keys of ``cli._SIM_KEYS``."""
    keys = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "get_typed" \
                and all(isinstance(a, ast.Constant) for a in node.args[1:3]):
            keys.add((node.args[1].value, node.args[2].value))
    return keys | {(section, key) for section, key, _ in cli._SIM_KEYS.values()}


def test_config_keys_do_not_grow():
    keys = _config_keys()
    assert len(keys) == CONFIG_KEYS, (
        f"{len(keys)} config keys, not the {CONFIG_KEYS} recorded: a new key, "
        f"or a removed one that CONFIG_KEYS does not reflect yet: {sorted(keys)}")


# call -> the one module that may make it: the Gauss-Legendre rule (whose
# nodes are a companion matrix's eigenvalues) and the log-log fit live in
# ``special``, the symbol pair (C, S) in ``semigroup``, the FFT pair in
# ``spectral`` (its out-taking transforms included)
_PRIMITIVE_HOMES = {"eigvalsh": "special", "polyfit": "special",
                    "propagator_cs": "semigroup", "fft": "spectral",
                    "ifft": "spectral"}


def _called_name(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_each_primitive_is_called_from_its_home_module_only():
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            home = _PRIMITIVE_HOMES.get(name)
            if home is not None and path.stem != home:
                strays.append(f"{path.stem}.py:{node.lineno} calls {name}")
    assert strays == [], f"a second copy of a shared primitive: {strays}"


def test_propagator_entries_alone_forms_the_symbol():
    # the entries (C+kS, iS, C-kS) are formed in one place, which every
    # route that applies e^{Lt} calls: the one call of propagator_cs in the
    # package is in propagator_entries
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text()), "<module>")]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            elif isinstance(node, ast.Call) and _called_name(node) == "propagator_cs":
                callers.append(f"{path.stem}.{scope}")
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    assert callers == ["semigroup.propagator_entries"], callers


def _span_targets():
    if not SPANS.exists():
        pytest.skip("no perfbench/ next to the package")
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def _resolve(modname: str, path: str):
    mod = importlib.import_module(modname)
    if "." in path:
        cls_name, meth = path.split(".")
        return getattr(mod, cls_name).__dict__[meth]
    return getattr(mod, path)


def test_benchmark_span_targets_resolve():
    # the traced benchmark wraps these calls by name; a rename or removal
    # would only show there, as a span that records no calls
    for name, modname, path, _ in _span_targets():
        assert callable(_resolve(modname, path)), (name, modname, path)


# argument slots the span counters read: (positional index, parameter name)
_COUNTED_ARGUMENTS = {
    ("ptails.special", "fn_value"): (1, "z"),
    ("ptails.heat", "_duhamel_integral"): (0, "k"),
    ("ptails.verify", "remainder_pipeline"): (0, "traj"),
    ("ptails.cli", "_write_csv"): (0, "path"),
    ("ptails.config", "RunManifest.write"): (1, "path"),
}


def test_benchmark_span_counters_find_their_arguments():
    targets = {(modname, path) for _, modname, path, _ in _span_targets()}
    for (modname, path), (index, param) in _COUNTED_ARGUMENTS.items():
        assert (modname, path) in targets
        params = list(inspect.signature(_resolve(modname, path)).parameters)
        assert params[index] == param, (modname, path, params)


def test_command_loads_no_scipy_numpy_random_ma_or_polynomial(tmp_path):
    # the package needs only numpy: loading any scipy module costs tens of MB
    # of resident memory (scipy.fft alone about 27 MB), numpy.random (with
    # hashlib and OpenSSL's libcrypto) about 6 MB, numpy.ma about 1 MB and
    # numpy.polynomial about 0.7 MB, each loaded by numpy on first use.
    # Every subcommand runs, small, in a fresh interpreter, so no test's own
    # import counts
    (tmp_path / "v.cfg").write_text(
        "[grid]\nn_points = 2048\nhalf_length = 250.0\n"
        "[simulate]\nt_final = 50.0\nsnapshots = 40\n"
        "[verify]\nd1_tolerance = 10.0\nrequire_tail = false\n")
    (tmp_path / "p.cfg").write_text("[profiles]\nalpha = 0.5\ngamma = 0.1\nn_max = 1\n")
    (tmp_path / "h.cfg").write_text("[heat]\nt_lo = 1.0\nt_hi = 100.0\nn_times = 3\n")
    (tmp_path / "g.cfg").write_text("[semigroup]\nn_k = 51\n")
    script = textwrap.dedent("""
        import sys
        from ptails import cli
        for argv in (["-o", "bounds", "bounds"],
                     ["-c", "v.cfg", "-o", "verify", "verify"],
                     ["-c", "v.cfg", "-o", "simulate", "simulate"],
                     ["-c", "p.cfg", "-o", "profiles", "profiles"],
                     ["-o", "special", "special", "--n", "2", "--points", "101"],
                     ["-c", "h.cfg", "-o", "heat", "heat"],
                     ["-c", "g.cfg", "-o", "semigroup", "semigroup"]):
            assert cli.main(argv) == 0, argv
        print("loaded:", *(m for m in sys.modules if m.split(".")[0] == "scipy"
                           or m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"],
                                                   ["numpy", "polynomial"])))
    """)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    verdicts = json.loads((tmp_path / "verify" / "manifest_verify.json").read_text())["verdicts"]
    assert "fits" in verdicts and "error" not in verdicts
    for name in ("bounds", "simulate", "profiles", "special", "heat", "semigroup"):
        assert (tmp_path / name / f"manifest_{name}.json").exists()
    assert done.stdout.splitlines()[-1] == "loaded:"
