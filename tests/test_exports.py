import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import starkprobe

MODULES = ["starkprobe"] + [f"starkprobe.{m.name}" for m in pkgutil.iter_modules(starkprobe.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def _defaulted(fn):
    return sum(p.default is not inspect.Parameter.empty
               for p in inspect.signature(fn).parameters.values())


def test_settable_option_count():
    # Every settable option of the public layer API: defaulted parameters of
    # the functions, methods and classmethods in each module's __all__, plus
    # defaulted fields of its dataclasses.  A new knob has to raise this
    # number here.
    count = 0
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for obj in (getattr(module, attr) for attr in getattr(module, "__all__", ())):
            if inspect.isfunction(obj):
                count += _defaulted(obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    count += sum(f.default is not dataclasses.MISSING
                                 or f.default_factory is not dataclasses.MISSING
                                 for f in dataclasses.fields(obj))
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        count += _defaulted(member)
    assert count == 13


def test_cli_import_leaves_out_scipy_special():
    # Every CLI run pays for its imports; scipy.special alone loads about 25
    # modules that no layer needs.
    src = Path(starkprobe.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", "import sys, starkprobe.cli; print('scipy.special' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
