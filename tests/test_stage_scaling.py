"""tools/stage_scaling.py on the smallest stage it is documented for."""
import importlib.util
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_stage_scaling_reports_every_figure(monkeypatch, capsys):
    """One H prints its line and a JSON row with every figure, and a
    re-solve from the cold solve's own basis takes no pivot. Neither the
    import nor ``main`` leaves ``sys.path`` or the BLAS thread
    variables changed."""
    for var in BLAS:
        monkeypatch.delenv(var, raising=False)
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "stage_scaling", ROOT / "tools" / "stage_scaling.py")
    stage_scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_scaling)
    assert stage_scaling.main(["--root", str(ROOT), "24"]) == 0
    assert sys.path == path
    assert [var for var in BLAS if var in os.environ] == []
    line, last = capsys.readouterr().out.splitlines()
    (row,) = json.loads(last)
    assert line == stage_scaling.line(row)
    assert row["H"] == 24
    assert [key for key, value in row.items() if value is None] == []
    assert row["warm_pivots"] == 0
