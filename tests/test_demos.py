"""Demos 01, 02, 04 and 05 run as scripts and print no failed check. As
their own processes on one 2-CPU host, 01 took 0.24 s, 02 0.41 s, 04
0.33 s and 05 1.7 s. Demo 03 is left out: it took 13-20 s, cross-validating
2^-8..2^6 at n > D, where 16 of its 280 kernel problems run to
max_epochs. Run it by hand with `PYTHONPATH=src python3 demos/03_linear_svm.py`."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_aggregation", "02_normalization",
                                  "04_ensembling_and_weights", "05_full_pipeline"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "False" not in out
