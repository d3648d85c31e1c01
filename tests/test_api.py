"""The import contract: every name the README library example and the demos
import from ``stokesheat`` is exported, and the export list stays small."""

import ast
import inspect
import pathlib
import re

import pytest

import stokesheat

ROOT = pathlib.Path(__file__).resolve().parent.parent


def exported():
    return {name for name, value in vars(stokesheat).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def readme_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1].split("\n## ", 1)[0]
    return "\n".join(re.findall(r"```python\n(.*?)```", section, flags=re.S))


def package_imports(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "stokesheat"
            for alias in node.names}


CALLERS = {"README.md": readme_example,
           **{f"demos/{p.name}": p.read_text
              for p in sorted((ROOT / "demos").glob("*.py"))}}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_caller_imports_are_exported(caller):
    names = package_imports(CALLERS[caller]())
    assert names, f"{caller} imports nothing from stokesheat"
    assert names <= exported(), sorted(names - exported())


def test_export_list_stays_small():
    assert len(CALLERS) == 5
    assert len(exported()) <= 40
