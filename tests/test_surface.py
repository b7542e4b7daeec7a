"""Every public name is reachable from one place: the module defining it."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import radclust
from radclust.io import write_points_csv, write_trajectory_csv
from radclust.scenarios import blob_points
from radclust.trajectory import synthetic_motorcade

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(radclust.__path__) if info.name != "__main__"
)


def test_modules_are_found():
    assert {"cli", "clustering", "geometry", "io", "matpower"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_in_their_module(name):
    module = importlib.import_module(f"radclust.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for entry in module.__all__:
        value = getattr(module, entry)
        if inspect.isfunction(value) or inspect.isclass(value):
            # Defined here, not re-exported from another module.
            assert value.__module__ == module.__name__, entry


def test_package_namespace_holds_no_function_or_class():
    for name in MODULES:
        importlib.import_module(f"radclust.{name}")
    found = [
        name
        for name, value in vars(radclust).items()
        if inspect.isfunction(value) or inspect.isclass(value)
    ]
    assert found == []


def test_library_modules_leave_the_reference_unloaded():
    # The paper's power method in ``matpower`` is a reference: of the
    # package's modules only ``cli`` imports it, inside ``bench``.  A fresh
    # interpreter shows what the library modules load on their own.
    library = ("geometry", "clustering", "trajectory", "io", "svgplot", "scenarios")
    code = "; ".join(
        ["import sys"]
        + [f"import radclust.{name}" for name in library]
        + ["print('radclust.matpower' in sys.modules)"]
    )
    src = os.path.dirname(os.path.dirname(radclust.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


@pytest.mark.parametrize("command", ["cluster", "trajectory"])
def test_runs_leave_numpy_ma_unloaded(tmp_path, command):
    # numpy 2.x loads ``numpy.ma`` on first use, and a plain ``np.unique``
    # uses it (``np.ma.is_masked``): 11-17 ms that no run needs.  numpy 1.x
    # loads it with numpy itself, so only a load by the run counts.  Nor
    # does a run other than ``bench`` load the reference in ``matpower``.
    inp, out = str(tmp_path / "in.csv"), str(tmp_path / "out.json")
    if command == "cluster":
        write_points_csv(blob_points(40, 1.0, 0.3, seed=2), inp)
        argv = ["cluster", "--input", inp, "--radius", "1.5", "--out", out]
        argv += ["--svg", str(tmp_path / "plot.svg")]
    else:
        write_trajectory_csv(synthetic_motorcade(), inp)
        argv = ["trajectory", "--input", inp, "--radius", "15", "--out", out]
        argv += ["--events", str(tmp_path / "events.json")]
    code = (
        "import sys, numpy; before = 'numpy.ma' in sys.modules; from radclust import cli; "
        f"status = cli.main({argv!r}); print(status, 'numpy.ma' in sys.modules and not before,"
        " 'radclust.matpower' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(radclust.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "0 False False\n"
