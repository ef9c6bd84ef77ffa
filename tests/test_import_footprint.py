"""What ``import supercochain.cli`` and one CLI job load, in a fresh interpreter, and what the scripts import.

Every CLI job pays this import.  ``dataclasses`` pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize``, so neither may appear; ``cli`` reads its
command line itself, so ``argparse`` and the ``gettext`` and ``locale`` it
loads appear neither after the import nor after a whole ``check-algebra``
job (argparse loaded ``locale`` only while it parsed).  The imports stay
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


FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
ARGPARSE_AND_ITS_IMPORTS = {"argparse", "gettext", "locale"}


def loaded_after(code):
    """The modules loaded once ``code`` has run in a fresh interpreter; its last stdout line."""
    code += "; import json, sys; print(); print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_cli_import_loads_no_dataclasses_and_every_submodule():
    loaded = loaded_after("import supercochain.cli")
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    assert not loaded & ARGPARSE_AND_ITS_IMPORTS
    ours = {name.split(".", 1)[1] for name in loaded if name.startswith("supercochain.")}
    assert ours == SUBMODULES
    assert {path.stem for path in (SRC / "supercochain").glob("*.py")} == (
        SUBMODULES | {"__init__", "__main__"}
    )


def test_a_whole_job_loads_no_argparse():
    argv = ["check-algebra", str(FIXTURES / "gl11.json"), "--format", "json"]
    loaded = loaded_after(f"from supercochain import cli; assert cli.main({argv!r}) == 0")
    assert "supercochain.cli" in loaded
    assert not loaded & ARGPARSE_AND_ITS_IMPORTS


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
