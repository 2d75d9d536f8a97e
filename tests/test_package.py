import inspect
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

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


def test_benchmark_bound_signatures():
    # perfbench/child.py binds these: it unpacks exactly these seven bound
    # parameters of phase_hist and passes workers= to the three drivers
    from ffmobius import correlations

    params = list(inspect.signature(correlations.phase_hist).parameters)
    assert params == ["ctx", "phase", "ncoords", "lo", "hi", "weights", "workers"]
    for fn in (correlations.exponent_sweep, correlations.vaughan_decompose,
               correlations.type_one_mean_square):
        assert "workers" in inspect.signature(fn).parameters, fn.__name__


def test_readme_quick_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    res = subprocess.run([sys.executable, "-c", tour], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "t^3+2"  # the Dirichlet denominator
