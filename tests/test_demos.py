"""Demos 01, 02 and 04 run as scripts and print no failed check; each
takes about 0.25 s as its own process. Demos 03 and 05 are left out: each
takes about 6 s, most of it cross-validating a C grid. Run them by hand
with `PYTHONPATH=src python3 demos/03_linear_svm.py` (and 05)."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_aggregation", "02_normalization",
                                  "04_ensembling_and_weights"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "False" not in out
