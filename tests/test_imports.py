"""Each module imports on its own: the package root imports nothing, so
an import cycle would show only for whoever imports a module first."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repotailor

MODULES = sorted(m.name for m in pkgutil.iter_modules(repotailor.__path__))

# numpy is a test-only package; the Unicode lexer classes cost 100-160 ms
# to build (2-core Xeon, Python 3.11), so they are built on first
# non-ASCII text, never at import
_PROBE = """
import importlib, sys
importlib.import_module(sys.argv[1])
javalex = sys.modules.get("repotailor.javalex")
print("numpy" in sys.modules, bool(javalex and javalex._unicode_scanners.cache_info().currsize))
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    src = str(Path(repotailor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, f"repotailor.{module}"], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]


# perfbench wraps program functions by the names its callers look up;
# `Patch.replace` reads each one, so a renamed or removed name fails here
_WRAP = """
import sys
sys.path.insert(0, sys.argv[1])
import layers, tracer
probe = layers.Probe(tracer.Tracer())
probe.install()
probe.restore()
"""


def test_every_name_perfbench_wraps_exists():
    src = Path(repotailor.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _WRAP, str(src.parent / "perfbench")], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
