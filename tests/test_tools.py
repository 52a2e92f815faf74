"""The scripts under tools/ import private names of segshift; a rename must fail here.

Each script is loaded by path and its ``main`` looked up; no benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize("name", ["kernel_bench", "cluster_bench"])
def test_tool_imports_and_has_main(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
