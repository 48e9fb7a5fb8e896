import ast
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


# the roots of the library's reach: the ring and polynomial classes with all
# their methods, the parser's entry points, and the reference products the
# tests compare the fast ones with; perfbench and bench.py add theirs below
RING_CLASSES = ("IntegerRing", "ZmRing", "ZpRing", "FractionField", "GFRing",
                "UniRing", "UniPoly", "MultiRing", "MultiPoly", "Ideal")
ENTRY_POINTS = ("parse_ring", "parse_element")
TEST_ORACLES = ("multi_mul_naive", "uni_mul_schoolbook", "uni_mul_karatsuba")


def _mentions(node):
    """Every bare name and attribute name in the tree under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_module_level_name_has_a_user():
    # a module-level def or class that the closure of the roots by name does
    # not reach is dead code, whatever the tests say of it; a reached name
    # counts wherever it is defined, and module-level statements other than
    # imports run on import, so they are roots too
    root = PYPROJECT.parent
    defs = {}
    roots = set(RING_CLASSES + ENTRY_POINTS + TEST_ORACLES)
    for path in sorted((root / "src" / "ringkit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
                if path.stem == "bench" and not node.name.startswith("_"):
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.update(_mentions(node))
    bench = root / "perfbench"
    roots.update(_mentions(ast.parse((bench / "problems.py").read_text())))
    for node in ast.parse((bench / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS":
            for _, name, _ in ast.literal_eval(node.value):
                roots.update(name.split("."))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, ()):
                todo.extend(_mentions(node))
    unreached = sorted("%s.%s" % (module, name) for name, found in defs.items()
                       if name not in reached for module, _ in found)
    assert unreached == []


def test_every_module_level_import_is_used():
    # an import that its module never reads is left over from a deletion
    root = PYPROJECT.parent
    unused = []
    for path in sorted((root / "src" / "ringkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [(alias.asname or alias.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += ["%s.%s" % (path.stem, name) for name in imported if name not in used]
    assert unused == []
