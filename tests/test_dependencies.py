"""The package has no runtime dependencies: it declares none and imports none.

Its modules use one another through public names only, and every
third-party module the tests import is in the ``dev`` extra.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lucascalc

ROOT = Path(__file__).parent.parent
SRC = Path(lucascalc.__file__).resolve().parent.parent


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_dev_extra_declares_every_third_party_test_import():
    # a test module whose import is missing is dropped at collection, its tests unseen
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["dev"]
    declared = {re.split(r"[\s\[<>=!~;]", req, maxsplit=1)[0].lower() for req in extra}
    tests = ROOT / "tests"
    local = {"lucascalc"} | {path.stem for path in tests.glob("*.py")}
    imported = set()
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = {name for name in imported - local if name not in sys.stdlib_module_names}
    assert sorted(third_party - declared) == []


def test_import_loads_only_stdlib_and_lucascalc():
    # -I -S: no user site, no site-packages, no PYTHONPATH; only the source tree is added
    code = (
        "import importlib, json, pkgutil, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import lucascalc\n"
        "for info in pkgutil.iter_modules(lucascalc.__path__, 'lucascalc.'):\n"
        "    importlib.import_module(info.name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, check=True
    )
    loaded = json.loads(out.stdout)
    assert "lucascalc.identities" in loaded and "lucascalc.cli" in loaded
    foreign = [
        name
        for name in loaded
        if name != "__main__"
        and name.split(".")[0] != "lucascalc"
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_modules_import_no_private_names_from_each_other():
    # a private helper shared across modules is a second owner of one piece of logic
    package = Path(lucascalc.__file__).resolve().parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "lucascalc"
            if internal:
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []
