"""tools/stage_scaling.py on the smallest stage it is documented for."""
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "stage_scaling", ROOT / "tools" / "stage_scaling.py")
stage_scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_scaling)


def test_stage_scaling_reports_every_figure(monkeypatch, capsys):
    """One H prints its line and a JSON row with every figure, and a
    re-solve from the cold solve's own basis takes no pivot."""
    monkeypatch.setattr(sys, "path", list(sys.path))    # main prepends
    assert stage_scaling.main(["--root", str(ROOT), "24"]) == 0
    line, last = capsys.readouterr().out.splitlines()
    (row,) = json.loads(last)
    assert line == stage_scaling.line(row)
    assert row["H"] == 24
    assert [key for key, value in row.items() if value is None] == []
    assert row["warm_pivots"] == 0
