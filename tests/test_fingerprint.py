"""tools/fingerprint.py leaves the process that loads it as it found it.

The full fingerprint runs for seconds; these tests only load the module
and call ``run`` on a tree it must refuse."""
import importlib.util
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "fingerprint", ROOT / "tools" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_leaves_the_environment_alone(monkeypatch):
    """Only a script run pins the BLAS thread variables."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    environ = dict(os.environ)
    _load()
    assert dict(os.environ) == environ


def test_run_restores_sys_path_when_it_raises(tmp_path, monkeypatch):
    """A tree whose package is not the one imported is refused, and the
    tree's ``src`` and ``perfbench`` leave ``sys.path`` with it."""
    fingerprint = _load()
    monkeypatch.setitem(sys.modules, "instances",
                        types.ModuleType("instances"))
    path = list(sys.path)
    with pytest.raises(SystemExit, match="not the package under"):
        fingerprint.run(tmp_path)
    assert sys.path == path


def test_stages_digest_repeats(monkeypatch):
    """The stages line solves each of its three stages cold, after the
    level move and after the cut, and two runs give one digest."""
    fingerprint = _load()
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from stockpile import lp
    first = fingerprint._stages(lp)
    assert first[1] == 3 * len(fingerprint.STAGE_PERIODS)
    assert fingerprint._stages(lp) == first
