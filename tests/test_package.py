import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "ffmobius"

# In a fresh interpreter: every name of ffmobius.__all__ and of each
# module's __all__ must import, and each name the package takes from one of
# its modules must be in that module's __all__, where it has one.  Prints
# the offenders.
SURFACE_CHECK = """
import importlib, pkgutil, sys, ffmobius
bad = []
for info in pkgutil.iter_modules(ffmobius.__path__):
    mod = importlib.import_module("ffmobius." + info.name)
    try:
        exec(f"from {mod.__name__} import *", {})
    except (AttributeError, ImportError) as exc:
        bad.append(f"{mod.__name__}: {exc}")
for name in ffmobius.__all__:
    try:
        exec(f"from ffmobius import {name}", {})
    except ImportError as exc:
        bad.append(f"ffmobius: {exc}")
        continue
    home = sys.modules.get(getattr(getattr(ffmobius, name), "__module__", None) or "")
    if home and home.__name__.startswith("ffmobius.") and name not in getattr(home, "__all__", [name]):
        bad.append(f"ffmobius.{name} is missing from {home.__name__}.__all__")
print("\\n".join(bad))
"""


def test_public_names_import_in_a_fresh_interpreter():
    res = subprocess.run([sys.executable, "-c", SURFACE_CHECK], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == ""


def test_cli_run_starts_no_thread_pool(tmp_path):
    # histograms are summed span by span in one thread; a run that still
    # accepts --workers must not even import an executor
    code = (
        "import sys\n"
        "from ffmobius import cli\n"
        f"assert cli.main(['linear-corr', '--field', '3', '--n', '9', '--workers', '4', "
        f"'--out', {str(tmp_path / 'out.csv')!r}]) == 0\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# In a fresh interpreter, the modules first imported while tiny versions of
# the benchmark's in-process jobs run: a sample of each sweep experiment, a
# pointwise Vaughan audit, a decomposition and its type I mean square, and
# one Hayes group with the four checks of each character and the principal
# check.  The second script lists what import numpy.random brings in, which
# the sweeps' generator needs.
JOBS_IMPORTS = """
import sys
from ffmobius import correlations, get_field, hayes, polys
from ffmobius.laurent import LaurentSeries
F2, F3 = get_field(2), get_field(3)
before = set(sys.modules)
for experiment in ("linear", "quadratic", "hankel"):
    correlations.exponent_sweep(F3, experiment, [3], 1, 0)
correlations.vaughan_pointwise_audit(F3, 5, 1, 2)
phase = correlations.LinearPhase(LaurentSeries.parse(F2, "-1:1,0,1,1,0,1,1"))
correlations.vaughan_decompose(F2, 6, phase, 1, 2)
correlations.type_one_mean_square(F2, 6, phase, 2)
Q = polys.Poly.parse(F3, "1,1")
group = hayes.build_group(F3, 1, Q)
for ch in group.characters():
    if not ch.is_principal:
        hayes.l_polynomial(ch, 4)
        hayes.rh_check(ch)
        hayes.euler_inverse_check(ch, 4)
        hayes.log_deriv_check(ch, 3)
hayes.principal_check(F3, Q, 4)
print("\\n".join(sorted(set(sys.modules) - before)))
"""
RANDOM_IMPORTS = """
import sys, ffmobius
before = set(sys.modules)
import numpy.random
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_jobs_import_nothing_lazily():
    # a module a job imports on first use (numpy.ma, from np.unique) is paid
    # inside the first timed job of every process
    def imported(script):
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return set(res.stdout.split())

    assert imported(JOBS_IMPORTS) <= imported(RANDOM_IMPORTS)


def test_benchmark_bound_signatures():
    # perfbench/child.py binds these: it unpacks exactly these seven bound
    # parameters of phase_hist and passes workers= to the three drivers.
    # Its Hayes runner calls the six Hayes functions with these leading
    # parameters, and perfbench/tracing.py wraps or reads the last three
    # Hayes names: a traced run would raise AttributeError without them
    from ffmobius import correlations, hayes

    params = list(inspect.signature(correlations.phase_hist).parameters)
    assert params == ["ctx", "phase", "ncoords", "lo", "hi", "weights", "workers"]
    for fn in (correlations.exponent_sweep, correlations.vaughan_decompose,
               correlations.type_one_mean_square):
        assert "workers" in inspect.signature(fn).parameters, fn.__name__
    assert issubclass(hayes.BudgetExceeded, Exception)
    calls = {
        hayes.build_group: ["ctx", "l", "Q", "budget"],
        hayes.l_polynomial: ["char", "n_max"],
        hayes.rh_check: ["char"],
        hayes.euler_inverse_check: ["char", "n_max"],
        hayes.log_deriv_check: ["char", "l_max"],
        hayes.principal_check: ["ctx", "Q", "n_max"],
    }
    for fn, names in calls.items():
        params = inspect.signature(fn).parameters
        assert list(params)[: len(names)] == names, fn.__name__
        rest = [p for name, p in params.items() if name not in names]
        assert all(p.default is not p.empty for p in rest), fn.__name__
    assert callable(hayes.HayesGroup.class_weights) and callable(hayes.residues_mod)
    assert isinstance(hayes._COPRIME_MASKS, dict)


def test_readme_quick_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    res = subprocess.run([sys.executable, "-c", tour], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "t^3+2"  # the Dirichlet denominator


def _relative_imports(path: Path) -> set:
    """The package modules one module imports by relative import, at any
    nesting depth; a name of the package that is not a module is __init__."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__"
                           for a in node.names)
    return out


def test_relative_imports_form_no_cycle():
    # one-way layering: each import between the package's modules, deferred
    # ones included, points down one graph, so a deferred import may be
    # added only where it points down
    graph = {path.stem: _relative_imports(path) for path in PACKAGE.glob("*.py")}
    state, stack = {}, []

    def cycle_from(mod):
        state[mod] = "open"
        stack.append(mod)
        for dep in sorted(graph.get(mod, ())):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state and (cycle := cycle_from(dep)):
                return cycle
        stack.pop()
        state[mod] = "done"
        return None

    for mod in sorted(graph):
        cycle = None if mod in state else cycle_from(mod)
        assert cycle is None, "import cycle: " + " -> ".join(cycle)
