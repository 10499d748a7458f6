"""Start-up: each entry loads only the dehncalc modules its verb uses,
and the package keeps its public surface while resolving names lazily."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dehncalc

# The directory holding the package the suite imported: src/ in the
# source layout, site-packages once the package is installed.
ROOT = Path(dehncalc.__file__).resolve().parents[1]

# Runs the CLI and prints its exit code and the modules loaded.
_CHILD = ("import sys\n"
          "from dehncalc.cli import main\n"
          "code = main(sys.argv[1:])\n"
          "print(code, *sorted(sys.modules))\n")

_BASE = {"dehncalc", "dehncalc.cli", "dehncalc.reports", "dehncalc.slopes",
         "dehncalc.value"}


def _all_loaded(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code and loaded modules of one fresh interpreter, which
    imports the package from ``ROOT`` only."""
    env = dict(os.environ, PYTHONPATH=str(ROOT))
    proc = subprocess.run([sys.executable, "-S", "-c", _CHILD, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def _loaded(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code and loaded dehncalc modules of one fresh interpreter."""
    code, modules = _all_loaded(argv)
    return code, {m for m in modules if m.partition(".")[0] == "dehncalc"}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["distance"], 2),
    (["distance", "1/2", "3/4"], 0),
], ids=["help", "usage-error", "distance"])
def test_cheap_entries_load_only_the_cli_core(argv, code):
    assert _loaded(argv) == (code, _BASE)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["distance"], 2),
    (["distance", "1/2", "3/4"], 0),
    (["classify", "L(6,5) # S2(2,2,3)"], 0),
    (["cover", "b(3/1) + mont(-1; 1/2, 1/3, 1/5)"], 0),
    (["cable", "--s", "1", "--t", "2", "--gamma", "0", "3"], 0),
    (["family-list"], 0),
    (["family-fill", "cyclic", "--p", "2", "--q", "4", "0"], 0),
    (["family-verify", "octahedral", "--p", "3..5"], 0),
    (["family-sweep", "dihedral", "--p", "3..4", "--q", "3..4"], 0),
    (["oracle", "b(7/3)", "mont(-1; 1/2, 1/3, 1/5)", "b(3/1) + b(4/1)"], 0),
], ids=["help", "usage-error", "distance", "classify", "cover", "cable",
        "family-list", "family-fill", "family-verify", "family-sweep",
        "oracle"])
def test_no_verb_loads_dataclasses(argv, code):
    # dataclasses alone would import inspect, ast and dis.  Each verb
    # runs in a process of its own, so a verb that misses an import fails
    # here even where an in-process test loaded the module first.
    exit_code, modules = _all_loaded(argv)
    assert exit_code == code
    assert not modules & {"dataclasses", "inspect"}


def test_oracle_loads_no_family_or_cable_module():
    code, modules = _loaded(["oracle", "b(7/3)"])
    assert code == 0
    assert "dehncalc.diagrams" in modules
    assert not modules & {"dehncalc.families", "dehncalc.cables"}


def test_family_sweep_loads_no_link_module():
    code, modules = _loaded(["family-sweep", "cyclic", "--p", "2", "--q", "4"])
    assert code == 0
    assert "dehncalc.families" in modules
    assert not modules & {"dehncalc.diagrams", "dehncalc.cover",
                          "dehncalc.cables", "dehncalc.links",
                          "dehncalc.parsing"}


def test_reading_manifolds_and_links_loads_no_typing():
    # The shapes' facts are plain annotations, which are never evaluated.
    code, modules = _all_loaded(["cover", "b(7/3)"])
    assert code == 0
    assert {"dehncalc.manifolds", "dehncalc.links"} <= modules
    assert "typing" not in modules


def test_exports_are_their_modules_objects():
    assert dehncalc.__all__ == [name for names in dehncalc._EXPORTS.values()
                                for name in names]
    assert len(set(dehncalc.__all__)) == len(dehncalc.__all__)
    for module_name, names in dehncalc._EXPORTS.items():
        module = importlib.import_module(f"dehncalc.{module_name}")
        for name in names:
            value = getattr(dehncalc, name)
            assert value is getattr(module, name), name
            # A class or function is exported from the module defining it.
            assert getattr(value, "__module__", module.__name__) \
                == module.__name__, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from dehncalc import *", namespace)
    assert set(dehncalc.__all__) <= set(namespace)
    assert namespace["manifold_compare"] is dehncalc.manifold_compare


def test_submodules_and_unknown_names():
    from dehncalc import manifolds
    assert manifolds is sys.modules["dehncalc.manifolds"]
    with pytest.raises(AttributeError, match="no_such_name"):
        dehncalc.no_such_name
    assert not hasattr(dehncalc, "no_such_name")
