import ast
import importlib
import pathlib
import re
from collections import Counter

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


def test_every_module_level_name_has_a_user():
    # a module-level def or class that nothing in the library, its tests or
    # the benchmark mentions is dead code; names counted as whole words
    root = PYPROJECT.parent
    sources = [p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")]
    words = Counter(w for p in sources for w in re.findall(r"\w+", p.read_text()))
    unused = []
    for path in sorted((root / "src" / "ringkit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # the def or class line itself is one mention
                if words[node.name] < 2:
                    unused.append("%s.%s" % (path.stem, node.name))
    assert unused == []
