"""What ``import supercochain.cli`` loads, in a fresh interpreter, and what the scripts import.

Every CLI job pays this import.  ``dataclasses`` pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize``, so neither may appear; and the imports stay
eager, so every submodule but ``__main__`` is loaded once the CLI is.  No
function imports anything either: an import inside a function is a hidden
dependency, or a way round an import cycle.  Every name a script under
``scripts/`` imports from ``supercochain`` exists; the imports are read with
``ast`` and no script runs (``regen_fixtures.py`` writes into ``fixtures/``).
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
SUBMODULES = {
    "cli", "cochains", "crossed", "deformation", "errors", "exact_linalg",
    "graded", "io", "superalgebra", "triple", "util",
}


def loaded_after_cli_import():
    code = "import json, sys, supercochain.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout))


def test_cli_import_loads_no_dataclasses_and_every_submodule():
    loaded = loaded_after_cli_import()
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    ours = {name.split(".", 1)[1] for name in loaded if name.startswith("supercochain.")}
    assert ours == SUBMODULES
    assert {path.stem for path in (SRC / "supercochain").glob("*.py")} == (
        SUBMODULES | {"__init__", "__main__"}
    )


def test_no_function_level_imports():
    found = []
    for path in sorted((SRC / "supercochain").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(
                    f"{path.name}:{node.lineno} in {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert found == []


def test_scripts_import_only_existing_names():
    checked, missing = 0, []
    for path in sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            targets = [(m, name) for m, name in targets if m.split(".")[0] == "supercochain"]
            for module_name, name in targets:
                checked += 1
                module = importlib.import_module(module_name)
                if name is not None and not hasattr(module, name):
                    try:
                        importlib.import_module(f"{module_name}.{name}")
                    except ModuleNotFoundError:
                        missing.append(f"{path.name}:{node.lineno} {module_name}.{name}")
    assert checked > 0
    assert missing == []
