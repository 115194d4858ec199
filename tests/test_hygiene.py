"""Source hygiene of the package: every import in src/quantproc is used, and so is
every module-level private function, class and constant; no law's quantile is
evaluated at a level ndtr(x) formed outside ``Law.from_score``; no driver's law
is read through the older ``marginal_*`` names; and a cold start loads none of
the heavy scipy submodules."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quantproc"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_detector_finds_an_unused_import():
    assert unused_imports("from typing import Callable, Optional\nx: Optional[int] = None\n") \
        == ["Callable (line 1)"]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict) -> list[str]:
    """Module-level private names (one leading underscore) that no module reads.

    ``sources`` maps module names to source text.  A name counts as read where
    any module loads it, reads it as an attribute (``va._discount``) or
    imports it.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_detector_finds_an_unread_private_name():
    sources = {"a.py": "_X, _Y = 1, 2\n_Z: int = 3\n\ndef _f():\n    return _Y\n\n"
                       "class _C:\n    pass\n",
               "b.py": "from a import _C\nimport a\nv = a._Z\n__all__ = []\n"}
    assert unread_private_names(sources) == ["a.py: _X", "a.py: _f"]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def level_round_trips(source: str) -> list[str]:
    """``.quantile(`` calls fed a level built by ``ndtr``: in an argument, or through a
    name that the function, nested functions included, assigns from an expression holding
    ``ndtr``.  ``Law.from_score`` is the one place a level may be formed."""
    tree = ast.parse(source)

    def holds(node, names) -> bool:
        return any((isinstance(n, ast.Call) and "ndtr" in (getattr(n.func, "id", None),
                                                           getattr(n.func, "attr", None)))
                   or (isinstance(n, ast.Name) and n.id in names) for n in ast.walk(node))

    scopes = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    scopes += [(f"{c.name}.{n.name}", n) for c in tree.body if isinstance(c, ast.ClassDef)
               for n in c.body if isinstance(n, ast.FunctionDef)]
    found = []
    for name, fn in scopes:
        if name == "Law.from_score":
            continue
        levels = {t.id for a in ast.walk(fn)
                  if isinstance(a, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                  and a.value is not None and holds(a.value, ())
                  for target in (a.targets if isinstance(a, ast.Assign) else [a.target])
                  for t in ast.walk(target) if isinstance(t, ast.Name)}
        found += [(call.lineno, f"{name} (line {call.lineno})") for call in ast.walk(fn)
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                  and call.func.attr == "quantile"
                  and any(holds(arg, levels)
                          for arg in call.args + [k.value for k in call.keywords])]
    return [label for _, label in sorted(found)]


def test_detector_finds_a_level_round_trip():
    source = textwrap.dedent("""\
        class Law:
            def from_score(self, t, x):
                return self.quantile(t, special.ndtr(x))

        class Family(Law):
            def from_score(self, t, x):
                return self.quantile(t, ndtr(x))

        def scan(q, xs):
            us = special.ndtr(xs)

            def one(x):
                u: float = float(ndtr(x))
                return q.quantile(1.0, u=u)
            return q.quantile(1.0, us), q.quantile(1.0, xs), q.from_score(1.0, xs), one(0.0)
        """)
    assert level_round_trips(source) == ["Family.from_score (line 7)", "scan (line 14)",
                                         "scan (line 15)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_level_round_trips(path):
    assert level_round_trips(path.read_text()) == []


#: the older names of a driver's marginal law, kept only for the benchmark's own callers
OLD_MARGINAL = ("marginal_cdf", "marginal_pdf", "marginal_quantile", "marginal_pmf")


def old_marginal_calls(source: str) -> list[str]:
    """``.marginal_cdf(``-style calls: a driver is a ``Law``, so the package reads its
    marginal law by ``cdf``, ``pdf``, ``quantile`` and ``pmf``."""
    calls = sorted((node.lineno, node.col_offset, node.func.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in OLD_MARGINAL)
    return [f"{attr} (line {line})" for line, _, attr in calls]


def test_detector_finds_an_old_marginal_call():
    source = textwrap.dedent("""\
        class Driver:
            def marginal_cdf(self, t, y):
                return self.cdf(t, y)

        def ratio(base, t, y):
            return base.marginal_pdf(t, y) / drv.marginal_cdf(base, t, y), marginal_cdf(base, t, y)

        def mass(lam, k):
            return lam.marginal_pmf(1.0, k) + lam.pmf(1.0, k)
        """)
    assert old_marginal_calls(source) == ["marginal_pdf (line 6)", "marginal_cdf (line 6)",
                                          "marginal_pmf (line 9)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_old_marginal_calls(path):
    assert old_marginal_calls(path.read_text()) == []


#: scipy submodules that cost most of a cold start; the package imports them where called
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize")


def heavy_modules_after(steps: dict) -> dict:
    """Run each step's code in turn in one fresh interpreter, which the test modules'
    own scipy imports cannot reach; map each step to the HEAVY modules loaded so far."""
    script = "import json, sys\nloaded = {}\n" + "".join(
        f"{code}\nloaded[{label!r}] = [m for m in {HEAVY!r} if m in sys.modules]\n"
        for label, code in steps.items()) + "print(json.dumps(loaded))\n"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_detector_finds_a_heavy_import():
    assert heavy_modules_after({"json": "import json", "optimize": "from scipy import optimize",
                                "special": "from scipy import special"}) \
        == {"json": [], "optimize": ["scipy.optimize"], "special": ["scipy.optimize"]}


def test_cold_start_loads_no_heavy_scipy_module():
    steps = {
        "import quantproc.cli": "import quantproc.cli",
        "qpvp_price": textwrap.dedent("""\
            from quantproc import drivers, transforms, valuation
            valuation.qpvp_price(valuation.ValuationRequest(
                drivers.Brownian(), transforms.canonical_map(transforms.TukeyG(0.0, 1.0, 0.4)),
                valuation.Layer(0.5, 2.0), 0.0, 1.0, 0.03, valuation.MCSettings(1_000, 1)))"""),
        "VarianceGamma.cdf":
            "drivers.VarianceGamma(-0.1, 0.3, 0.4).cdf(1.0, [-0.5, 0.0, 0.5])",
        "sosd_check": textwrap.dedent("""\
            from quantproc import dominance
            q2 = transforms.TukeyG(0.0, 1.0, 0.3)
            dominance.sosd_check(dominance.state_dependent_tukey_g_cdf(0.8, 0.2),
                                 lambda z: q2.cdf(1.0, z), (-1.0 / 0.3, float("inf")))"""),
        "split_g_sosd_integrals": "dominance.split_g_sosd_integrals(0.8, 0.2, 0.3)",
    }
    assert heavy_modules_after(steps) == {label: [] for label in steps}
