"""Every demo script runs to completion, and the top-level package
exports exactly what the demos and the README's library sketch import
from it, plus ``AuditReport`` and the ``PipelineError`` hierarchy.
Every public module-level name of the package, and every public
method and property of its classes, is used somewhere."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import concat_augment
from concat_augment import errors

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_blocks() -> list[str]:
    """The README's Python code blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", readme, re.DOTALL)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")


def top_level_imports(source: str) -> set[str]:
    """The names ``from concat_augment import ...`` statements import."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "concat_augment"
        for alias in node.names
    }


def test_exports_are_what_demos_and_readme_use():
    used = set()
    for demo in DEMOS:
        used |= top_level_imports(demo.read_text(encoding="utf-8"))
    for block in readme_blocks():
        used |= top_level_imports(block)
    hierarchy = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.PipelineError)
    }
    assert used  # the parse found the imports
    assert set(concat_augment.__all__) == used | hierarchy | {"AuditReport"}
    assert len(concat_augment.__all__) == len(set(concat_augment.__all__))


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module's top-level functions, classes and assignments
    define, and as ``Class.name`` the methods and properties of its
    top-level classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        if isinstance(node, ast.ClassDef):
            names |= {
                f"{node.name}.{member.name}"
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return names


def referenced_names(tree: ast.AST) -> set[str]:
    """The names code reads, imports or looks up as an attribute; a
    definition, a comment or a docstring is not a reference."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_of_the_package_is_used():
    """The code the system does not need goes: each public name defined
    at the top of a package module, and each public method and property
    of its classes, is referenced, by name, from the package, the tests,
    the demos, perfbench or the README's code. A method counts as used
    when any code looks up an attribute of its name, and a string
    constant in perfbench counts too: its tracer wraps methods by name."""
    used = set()
    for source in readme_blocks():
        used |= referenced_names(ast.parse(source))
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= referenced_names(tree)
            if folder == "perfbench":
                used |= {
                    node.value
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                }
    modules = sorted((ROOT / "src" / "concat_augment").glob("*.py"))
    defined = {
        f"{module.stem}.{name}"
        for module in modules
        for name in defined_names(ast.parse(module.read_text(encoding="utf-8")))
    }
    # the walk found the package, its methods and their uses
    assert "rng.keyed_rng" in defined and "archive.FeatureArchive.slot" in defined
    assert "keyed_rng" in used and "slot" in used
    dead = [
        name
        for name in sorted(defined)
        for member in [name.rpartition(".")[2]]
        if not member.startswith("_") and member not in used
    ]
    assert not dead, f"defined but never used: {dead}"
