"""The import graph: lazy package re-exports and what a process loads.

Every package ``__init__`` re-exports its public names lazily
(:mod:`repro._lazy`), so a process imports only the modules its work
runs.  These tests pin that down:

* every name in every package's ``__all__`` resolves and ``dir`` lists
  it, and a package attribute that names a submodule imports it;
* in fresh interpreters, ``import repro`` binds no subpackage, a DES
  sweep through set-up and one cell never imports numpy, the run store
  never imports asyncio, and ``--help`` imports neither;
* only the modules that compute with numpy import it at module level;
* modules that once formed an import cycle hidden by the eager
  top-level package import cleanly as the first import of an
  interpreter.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _packages():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            yield info.name


PACKAGES = sorted(_packages())

#: The modules that compute with numpy, the only ones that may import it
#: at module level (DESIGN.md, "The import rule").
NUMPY_MODULES = {
    "repro.analysis.distributions",
    "repro.analysis.scaling",
    "repro.analysis.service",
    "repro.analysis.statistics",
    "repro.apps.energy",
    "repro.kernels.batched",
    "repro.kernels.prng",
    "repro.viz.histogram",
}


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` as the only program of a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    assert package.__all__, f"{name} exports nothing"
    listed = dir(package)
    for export in package.__all__:
        getattr(package, export)
        assert export in listed, f"dir({name}) misses {export}"


@pytest.mark.parametrize("name", PACKAGES)
def test_exported_names_do_not_shadow_submodules(name):
    # Importing a submodule binds it in its package under its own name,
    # which would replace a re-export of the same name.
    package = importlib.import_module(name)
    submodules = {info.name
                  for info in pkgutil.iter_modules(package.__path__)}
    assert not submodules & set(package.__all__)


def test_unknown_attribute_raises_attribute_error():
    import repro.sweeps

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.sweeps.nope
    assert not hasattr(repro, "__wrapped__")


def test_import_repro_binds_no_subpackage():
    proc = _fresh("""
        import sys, types
        import repro
        bound = [n for n, v in vars(repro).items()
                 if isinstance(v, types.ModuleType)]
        loaded = sorted(m for m in sys.modules if m.startswith("repro"))
        assert bound == ["_lazy"], bound
        assert loaded == ["repro", "repro._lazy"], loaded
        # A package attribute that names a submodule imports it.
        assert repro.sweeps.spec.SweepSpec is not None
        assert "repro.sweeps.spec" in sys.modules
        assert "repro.sweeps.engine" not in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr


def test_des_sweep_set_up_and_first_cell_import_no_numpy():
    proc = _fresh("""
        import sys
        import repro.sweeps
        import repro.messagepassing.cst
        import repro.observability.store
        from repro.sweeps import SweepSpec, run_cells
        spec = SweepSpec(name="cold", kind="des", n_values=(5,),
                         seeds=(3,), gap_duration=5.0)
        assert "numpy" not in sys.modules, "set-up imported numpy"
        (result,) = run_cells(spec)
        assert result["stabilized_at"] is not None, result
        assert "numpy" not in sys.modules, "the first cell imported numpy"
    """)
    assert proc.returncode == 0, proc.stderr


def test_run_store_imports_no_asyncio_or_numpy():
    proc = _fresh("""
        import sys
        import repro.observability.store
        assert "asyncio" not in sys.modules
        assert "numpy" not in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr


def test_cli_help_imports_no_asyncio_or_numpy():
    proc = _fresh("""
        import sys
        from repro.cli import main
        try:
            main(["--help"])
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        assert "asyncio" not in sys.modules
        assert "numpy" not in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr
    assert "live" in proc.stdout


def test_algorithm_table_imports_only_the_class_asked_for():
    proc = _fresh("""
        import sys
        from repro.algorithms import build_algorithm
        assert build_algorithm("dijkstra", 4).K == 5
        assert "repro.core.ssrmin" not in sys.modules
        assert build_algorithm("ssrmin", 4, 6).K == 6
        assert "numpy" not in sys.modules
        assert "asyncio" not in sys.modules
        try:
            build_algorithm("nope", 4)
        except ValueError:
            pass
        else:
            raise AssertionError("an unknown name was built")
        import repro.runtime
        import repro.verification.conformance
        assert repro.runtime.build_algorithm is build_algorithm
        assert repro.verification.conformance.build_algorithm is build_algorithm
    """)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", [
    "repro.algorithms.base",
    "repro.core.rules",
    "repro.messagepassing.cst",
])
def test_first_import_of_a_fresh_interpreter(module):
    proc = _fresh(f"import {module}")
    assert proc.returncode == 0, proc.stderr


def test_only_numpy_modules_import_numpy_at_module_level():
    importers = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        path = importlib.util.find_spec(info.name).origin
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                importers.add(info.name)
    assert importers == NUMPY_MODULES
