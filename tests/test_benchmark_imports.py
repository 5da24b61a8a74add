"""The benchmark scripts under perfbench/ and the demos import program
names directly. Every name they import must exist, so that deleting or
renaming one fails here rather than in a benchmark run or in a demo that
the suite does not run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from emovid import svm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = ("run.py", "workloads.py", "tracer.py")
DEMOS = sorted(PERFBENCH.parent.glob("demos/*.py"))


def program_imports(path):
    """(module, name) for every `from emovid... import name` in the file,
    at any depth (the scripts import inside functions too)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "emovid" for alias in node.names]


def missing_names(path):
    """The program names the file imports that do not exist."""
    imports = program_imports(path)
    assert imports, f"{path.name} imports nothing from emovid"
    missing = []
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            try:  # `from package import submodule`
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module_name}.{name}")
    return missing


@pytest.mark.parametrize("script", SCRIPTS)
def test_benchmark_imports_exist_in_the_program(script):
    missing = missing_names(PERFBENCH / script)
    assert not missing, f"perfbench/{script} imports names the program lacks: {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_imports_exist_in_the_program(demo):
    missing = missing_names(demo)
    assert not missing, f"demos/{demo.name} imports names the program lacks: {missing}"


def test_the_tracer_solver_wrapper_call_binds():
    # tracer.py's train_binary wrapper calls the original with these keywords
    inspect.signature(svm.train_binary).bind(None, None, None, debug=False, full_output=True)
