"""The import contract: every name the README library example and the demos
import from ``stokesheat`` is exported, and the export list stays small; the
README library example also runs as written; and scipy is imported only by
the oracle, so a command-line run loads no scipy.optimize."""

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys

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
    assert len(exported()) <= 35


def test_readme_example_runs():
    scope = {}
    exec(compile(readme_example(), "README.md", "exec"), scope)
    report = scope["report"]
    assert report.final_norm / report.initial_norm <= 1e-4


def imports_scipy(path):
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module)
    return any(m == "scipy" or m.startswith("scipy.") for m in modules)


def test_scipy_is_imported_only_by_the_oracle():
    # the oracle is the independent reference; root refinement is an in-repo
    # port of scipy's brentq, and the square-root-factor path runs on numpy's
    # BLAS alone
    importers = {path.stem for path in (ROOT / "src" / "stokesheat").glob("*.py")
                 if imports_scipy(path)}
    assert importers <= {"oracle"}, sorted(importers)


# after the import, a cold eigens (which refines roots) and a warm-cache
# control run, each in the same fresh process: a "loaded:" line with the
# scipy.optimize modules in sys.modules
NO_OPTIMIZE_SCRIPT = """
import os, sys
import stokesheat.cli as cli

def loaded():
    print("loaded:", sorted(m for m in sys.modules
                            if m.split(".")[:2] == ["scipy", "optimize"]))

out, cache = sys.argv[1], os.path.join(sys.argv[1], "b.json")
loaded()
assert cli.main(["eigens", "--lambda-max", "60", "--cache", cache,
                 "--out-dir", os.path.join(out, "eigens")]) == 0
loaded()
assert cli.main(["control", "--lambda-max", "60", "--lambda-cap", "50",
                 "--z0-modes", "10", "--cache", cache,
                 "--out-dir", os.path.join(out, "control")]) == 0
loaded()
"""


def test_command_line_runs_load_no_scipy_optimize(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", NO_OPTIMIZE_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert "loaded basis from cache" in proc.stderr  # the control run was warm
    loaded = [line for line in proc.stdout.splitlines()
              if line.startswith("loaded:")]
    assert loaded == ["loaded: []"] * 3
