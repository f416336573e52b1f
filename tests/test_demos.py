"""Every demo script runs to completion, and the top-level package
exports exactly what the demos and the README's library sketch import
from it, plus ``AuditReport`` and the ``PipelineError`` hierarchy."""

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
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL):
        used |= top_level_imports(block)
    hierarchy = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.PipelineError)
    }
    assert used  # the parse found the imports
    assert set(concat_augment.__all__) == used | hierarchy | {"AuditReport"}
    assert len(concat_augment.__all__) == len(set(concat_augment.__all__))
