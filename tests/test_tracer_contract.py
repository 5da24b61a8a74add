"""perfbench/tracer.py wraps program functions by name. Every name it
lists must exist, so that renaming or deleting one fails here rather than
partway through a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from emovid import aggregate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_names_exist_in_the_program():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"emovid.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"emovid.{layer} has no {missing}"
    assert set(tracer.AGGREGATOR_BLOCKS) <= set(aggregate._AGGREGATORS)
