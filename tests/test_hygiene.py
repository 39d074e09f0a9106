"""Source hygiene: every name a module imports is read somewhere in it,
every module imports only what a plain install provides, no caller sets
its own quadrature order, the quadrature sums no panel by a BLAS product
and builds no rule through numpy.polynomial, the exact box counts take no
inverse transform, only closed_forms turns the exact F into a float, the
circle kernels share one Dirichlet-kernel routine, only integrate_panels
applies the Gauss-Legendre panel rules, only the box counter fills an
r-table, every committed benchmark record names what the benchmark
measures, and every layer the benchmark traces exists."""

import ast
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

import conecount

MODULES = sorted(p for p in Path(conecount.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def _call_name(call: ast.Call) -> str | None:
    """The called name: ``f`` of ``f(...)`` and of ``mod.f(...)``."""
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)


def _literal_orders(tree: ast.Module) -> list[str]:
    """Calls of integrate_panels whose order is written out in literals
    (``order=4``, ``order=6 + 3 * n``) instead of taken from a function."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name != "integrate_panels":
            continue
        for expr in [kw.value for kw in node.keywords if kw.arg == "order"]:
            parts = list(ast.walk(expr))
            if any(isinstance(p, ast.Constant) for p in parts) and not any(isinstance(p, ast.Call) for p in parts):
                found.append(f"line {node.lineno}: order={ast.unparse(expr)}")
    return found


def test_literal_order_is_detected():
    src = "integrate_panels(f, brk, order=4)\nintegrals.integrate_panels(f, brk, order=6 + 3 * n)\n"
    assert _literal_orders(ast.parse(src)) == ["line 1: order=4", "line 2: order=6 + 3 * n"]
    assert _literal_orders(ast.parse("integrate_panels(f, brk, order=panel_order(3 * n))")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_quadrature_order_comes_from_the_order_rule(path):
    # integrals.panel_order is the one place that turns what a panel holds
    # into a Gauss-Legendre order
    assert _literal_orders(ast.parse(path.read_text(), filename=str(path))) == []


def _blas_products(tree: ast.Module) -> list[str]:
    """Matrix products (``a @ b``, ``a @= b``) and ``dot`` calls, whose
    rounding depends on the BLAS kernel and on the shape it is handed."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(node)
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if name == "dot":
                found.append(node)
    return [f"line {n.lineno}: {ast.unparse(n)}" for n in sorted(found, key=lambda n: n.lineno)]


def test_blas_product_is_detected():
    src = "y = v @ w\ny @= w\nz = np.dot(v, w)\nz = v.dot(w)\nz = (v * w).sum(axis=1)\n"
    assert _blas_products(ast.parse(src)) == [
        "line 1: v @ w", "line 2: y @= w", "line 3: np.dot(v, w)", "line 4: v.dot(w)"]


def test_quadrature_sums_panels_by_rows():
    # a panel's value is a numpy row sum, which rounds each row alone, so
    # the blocks a level is cut into cannot move a bit
    path = Path(conecount.__file__).parent / "integrals.py"
    assert _blas_products(ast.parse(path.read_text(), filename=str(path))) == []


def _polynomial_uses(tree: ast.Module) -> list[str]:
    """Imports of numpy.polynomial and attribute reads ``.polynomial``."""
    found = [n for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "polynomial"
             or isinstance(n, ast.Import) and any(a.name.startswith("numpy.polynomial") for a in n.names)
             or isinstance(n, ast.ImportFrom) and (n.module or "").startswith("numpy.polynomial")]
    return [f"line {n.lineno}: {ast.unparse(n)}" for n in sorted(found, key=lambda n: n.lineno)]


def test_polynomial_use_is_detected():
    src = "x, w = np.polynomial.legendre.leggauss(5)\nimport numpy.polynomial\nfrom numpy.polynomial import legendre\n"
    assert _polynomial_uses(ast.parse(src)) == [
        "line 1: np.polynomial", "line 2: import numpy.polynomial", "line 3: from numpy.polynomial import legendre"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_numpy_polynomial(path):
    # the Gauss-Legendre rules come from the Legendre recurrence, so no run
    # imports numpy.polynomial (9 modules) or builds a rule through it
    assert _polynomial_uses(ast.parse(path.read_text(), filename=str(path))) == []


def _inverse_transforms(tree: ast.Module) -> list[str]:
    """Calls of ``irfft`` or ``rint``: an inverse transform rounded back to
    integers, which the Parseval sums of the counting engine do without."""
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _call_name(n) in ("irfft", "rint")]
    return [f"line {n.lineno}: {ast.unparse(n)}" for n in calls]


def test_inverse_transform_is_detected():
    src = "s = np.fft.irfft(f, n)\nnp.rint(s, out=s)\nr = irfft(f)\nt = np.fft.rfft(r, n)\nc = round(t)\n"
    assert _inverse_transforms(ast.parse(src)) == [
        "line 1: np.fft.irfft(f, n)", "line 2: np.rint(s, out=s)", "line 3: irfft(f)"]


def test_box_counts_take_no_inverse_transform():
    # M(X, Y) is one forward rfft per batch under a Parseval rounding bound
    path = Path(conecount.__file__).parent / "counts.py"
    assert _inverse_transforms(ast.parse(path.read_text(), filename=str(path))) == []


def _floats_of_exact_F(tree: ast.Module) -> list[str]:
    """Calls ``float(F_closed(...))``: F rounded through Fraction arithmetic,
    where closed_forms.F_rounded rounds it from fixed-point sums."""
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _call_name(n) == "float"
             and any(isinstance(a, ast.Call) and _call_name(a) == "F_closed" for a in n.args)]
    return [f"line {n.lineno}: {ast.unparse(n)}" for n in calls]


def test_float_of_exact_F_is_detected():
    src = "x = float(F_closed(n))\ny = float(closed_forms.F_closed(n))\nz = F_closed(n)\nw = float(F_rounded([n])[0])\n"
    assert _floats_of_exact_F(ast.parse(src)) == ["line 1: float(F_closed(n))", "line 2: float(closed_forms.F_closed(n))"]


def test_only_closed_forms_rounds_the_exact_F():
    # F_rounded is the one routine that turns F into a float
    found = {p.name: _floats_of_exact_F(ast.parse(p.read_text(), filename=str(p)))
             for p in MODULES if p.name != "closed_forms.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}


def _callers(tree: ast.Module, called) -> dict[str, list[str]]:
    """For each top-level function, the calls in it (nested functions
    included) for which ``called(call)`` holds."""
    found = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            calls = [ast.unparse(n) for n in ast.walk(fn) if isinstance(n, ast.Call) and called(n)]
            if calls:
                found[fn.name] = calls
    return found


def _numpy_trig(call: ast.Call) -> bool:
    """``np.sin``, ``np.cos`` or ``np.exp``."""
    f = call.func
    return isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "np" and f.attr in ("sin", "cos", "exp")


def test_numpy_trig_callers_are_detected():
    src = ("def f(a):\n    return np.sin(a) + math.sin(a)\n"
           "def g(a):\n    def h(b):\n        return np.exp(1j * b)\n    return h(a)\n"
           "def k(a):\n    return kernel_sum(a, 3, 2, 1.0) + np.cosh(a)\n")
    tree = ast.parse(src)
    assert _callers(tree, _numpy_trig) == {"f": ["np.sin(a)"], "g": ["np.exp(1j * b)"]}
    assert _callers(tree, lambda c: _call_name(c) == "kernel_sum") == {"k": ["kernel_sum(a, 3, 2, 1.0)"]}


def test_circle_kernels_share_one_routine():
    # every Dirichlet-kernel sum goes through kernel_sum, so its period
    # reduction and its near-integer branch hold for all of them; the sinc
    # sum of v_q and the J(q) integrand take their own sines
    path = Path(conecount.__file__).parent / "circle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(_callers(tree, _numpy_trig)) == {"kernel_sum", "_sinc_sum", "j_quadrature"}
    kernel_callers = set(_callers(tree, lambda c: _call_name(c) == "kernel_sum"))
    assert {"f_eval", "g_q_eval", "w_q_eval", "sym_kernel", "minor_arc_scan"} <= kernel_callers


def test_panel_rules_serve_only_integrate_panels():
    # the sine integral takes no quadrature: the Gauss-Legendre panel sums
    # serve integrands through integrate_panels alone
    callers = {f"{path.stem}.{fn}" for path in MODULES
               for fn in _callers(ast.parse(path.read_text(), filename=str(path)),
                                  lambda c: _call_name(c) == "_gl_sums")}
    assert callers == {"integrals.integrate_panels"}


def test_r_table_fill_has_one_caller():
    # the box counter fills its rows in place; nothing else in the package
    # builds a divisor-pair table (the mean square takes gcd blocks instead)
    callers = {f"{path.stem}.{fn}" for path in MODULES
               for fn in _callers(ast.parse(path.read_text(), filename=str(path)),
                                  lambda c: _call_name(c) == "build_r_table")}
    assert callers == {"counts._count_boxes"}


ROOT = Path(__file__).resolve().parents[1]


def _imported_roots(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports (relative ones are the package)."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imports_are_stdlib_or_declared_dependencies():
    # the test extras (scipy, hypothesis) are installed wherever the tests
    # run, so an import of one in the package passes every other test and
    # fails only a plain install
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    allowed = set(sys.stdlib_module_names) | {"conecount"}
    allowed |= {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_") for dep in deps}
    stray = [f"{path.name}: {name}" for path in sorted(Path(conecount.__file__).parent.glob("*.py"))
             for name in sorted(_imported_roots(ast.parse(path.read_text(), filename=str(path))))
             if name not in allowed]
    assert stray == []


BENCH_RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda p: p.name)
def test_bench_record_names_benchmark_metrics(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["workload"] in workloads
    assert claim["metric"] in end_to_end
    assert claim["metric"] in record["workloads"][claim["workload"]]["metrics"]
    for name, entry in record["workloads"].items():
        assert name in workloads
        assert entry["metrics"], name
        for metric, sides in entry["metrics"].items():
            assert metric in end_to_end, (name, metric)
            for side in ("parent", "change"):
                assert isinstance(sides[side]["median"], (int, float)), (name, metric, side)


def _traced_names() -> list[str]:
    """The ``TRACED`` tuple of perfbench/tracing.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_traced_layers_exist():
    # the tracer looks up every traced name when it installs, so a renamed
    # layer would break a traced benchmark run and no other test
    names = _traced_names()
    assert "arith.build_r_table" in names
    missing = []
    for name in names:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"conecount.{module}"), attr, None)):
            missing.append(name)
    assert missing == []
