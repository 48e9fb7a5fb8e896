import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_targets_import():
    # an installed script whose target is missing fails at its first launch
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
