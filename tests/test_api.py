"""The public API documents itself, and the sources import only what they use.

The package's runtime needs numpy and the standard library alone; scipy
serves the tests as a reference and is never loaded by the package.
"""

import ast
import inspect
import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import kato_evolve as ke
from kato_evolve import core


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


def _src_trees():
    """(file name, syntax tree) of every module of the package."""
    for path in sorted(Path(ke.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_src_imports_are_used():
    unused = []
    for name, tree in _src_trees():
        if name == "__init__.py":
            continue
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {alias}" for alias in imported if alias not in used]
    assert unused == []


def test_src_private_names_are_used():
    # a private top-level name that nothing else in the package reads is dead
    defined, read = [], set()
    for name, tree in _src_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            defined += [(name, t) for t in targets
                        if t.startswith("_") and not t.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert len(defined) > 20
    assert [f"{name}: {t}" for name, t in defined if t not in read] == []


def test_src_imports_only_numpy_and_the_standard_library():
    allowed = {"numpy", "kato_evolve", *sys.stdlib_module_names}
    foreign = []
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:  # relative imports stay inside the package
                continue
            foreign += [f"{name}: {m}" for m in modules if m.split(".")[0] not in allowed]
    assert foreign == []


def test_cli_run_loads_no_scipy():
    code = (
        "import contextlib, io, json, sys\n"
        "import kato_evolve\n"
        "from kato_evolve import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['verify', '--preset', 'DIFF1'])\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, check=True)
    assert json.loads(proc.stdout) == [0, []]


def test_scenario_store_has_one_owner():
    # the propagator module owns the store's keys (frozen times and the
    # default constants); no other module may read or write it
    touching = sorted({name for name, tree in _src_trees() for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr == "caches"})
    assert touching == ["propagator.py"]


def test_every_module_all_names_what_the_package_exports():
    import importlib

    init = ast.parse(Path(ke.__file__).read_text(encoding="utf-8"))
    exported = {node.module: sorted(alias.name for alias in node.names)
                for node in init.body if isinstance(node, ast.ImportFrom)}
    assert len(exported) == 10
    declared = {name: sorted(importlib.import_module(f"kato_evolve.{name}").__all__)
                for name in exported}
    assert declared == exported


def test_src_lines_fit_in_100_characters():
    long = [f"{path.name}:{i}" for path in sorted(Path(ke.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []


def _readme_bullet(section, start):
    """The README bullet that begins with ``start``, after it, on one line."""
    match = re.search(rf"^- {re.escape(start)}(.*?)(?=^- |^\S|\Z)", section, re.M | re.S)
    return " ".join(match.group(1).split())


def _named_with_parameters(text):
    """{name: [names in its parentheses]} for each ``name`` (...) of a README list."""
    return {name: re.findall(r"`(\w+)`", inner)
            for name, inner in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", text)}


def test_readme_scenario_section_names_what_the_parser_reads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    ke.build_scenario(example)
    for name, table in (("operator", core._OPERATOR_KINDS), ("birth", core._BIRTH_KINDS)):
        kinds = _named_with_parameters(_readme_bullet(section, f"`{name}.kind`:"))
        assert kinds == {kind: list(defaults) for kind, (_, defaults) in table.items()}
    norms = _named_with_parameters(_readme_bullet(section, "`norm`:"))
    assert tuple(norms) == core._NORM_TAGS
    optional = _named_with_parameters(_readme_bullet(section, "Optional:"))
    assert set(example) | set(optional) == set(core._SCENARIO_KEYS)
    assert optional["tolerances"] == [f.name for f in fields(ke.Tolerances)]
    assert optional["reference_operator"] == list(core._REFERENCE_KINDS)
