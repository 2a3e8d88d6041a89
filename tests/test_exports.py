"""Each library module's __all__ names what it has, and the package re-exports exactly their union.

The library never imports the oracles module: the dependency runs from the
tests to both, never from the library to the oracles. Nor does it import
scipy.
"""

import importlib
import os
import subprocess
import sys
import types

import pytest

import chordnoise

LIBRARY = ["phasespace", "states", "channels", "dynamics", "spectral"]


def _module(name):
    return importlib.import_module(f"chordnoise.{name}")


@pytest.mark.parametrize("name", LIBRARY)
def test_all_names_exist(name):
    mod = _module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_reexports_the_union():
    union = set().union(*(_module(name).__all__ for name in LIBRARY))
    public = {
        n for n, v in vars(chordnoise).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == union
    for name in LIBRARY:
        mod = _module(name)
        assert all(getattr(chordnoise, n) is getattr(mod, n) for n in mod.__all__)


def _in_fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(chordnoise.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_library_does_not_import_oracles():
    _in_fresh_interpreter("import chordnoise, sys; assert 'chordnoise.oracles' not in sys.modules")


def test_library_and_cli_do_not_import_scipy():
    # scipy is installed but never needed: its import would cost ~0.4 s and ~32 MB per run
    _in_fresh_interpreter(
        "import chordnoise, chordnoise.cli, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules), "
        "sorted(m for m in sys.modules if m.startswith('scipy'))"
    )
