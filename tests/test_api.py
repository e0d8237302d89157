"""The public API documents itself, and the sources import nothing they do not use."""

import ast
import inspect
from pathlib import Path

import kato_evolve as ke


def _own_docstring(obj):
    doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
    if doc and inspect.isclass(obj) and hasattr(obj, "__dataclass_fields__"):
        # a dataclass without a docstring gets its signature as one
        generated = obj.__name__ + str(inspect.signature(obj)).replace(" -> None", "")
        if doc == generated:
            return None
    return doc


def test_every_public_class_and_function_has_a_docstring():
    names = [n for n in ke.__all__
             if inspect.isclass(getattr(ke, n)) or inspect.isfunction(getattr(ke, n))]
    assert len(names) > 50
    assert [n for n in names if not (_own_docstring(getattr(ke, n)) or "").strip()] == []


def test_src_imports_are_used():
    unused = []
    for path in sorted(Path(ke.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []
