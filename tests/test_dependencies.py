"""The package has no runtime dependencies: it declares none and imports none.

Its modules use one another through public names only, every private
module-level name is used in its module, and every third-party module the
tests import is in the ``dev`` extra.
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


def test_functions_build_no_rational_rows():
    # deformed.deformed_row owns the rows' integer parts; functions reads no Fraction
    path = Path(lucascalc.__file__).resolve().parent / "functions.py"
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Fraction":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "lucasnomial_parts":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Attribute) and node.attr in {"numerator", "denominator", "RATIONAL"}:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name == "Fraction"]
    assert found == []


def test_every_private_module_name_is_used_in_its_module():
    # a helper or constant that a deletion leaves behind is dead code; a function
    # registered by a decorator of its module counts as used
    package = Path(lucascalc.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            defined.update((name, node) for name in private)
        registered = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for deco in node.decorator_list:
                    func = deco.func if isinstance(deco, ast.Call) else deco
                    if isinstance(func, ast.Name) and func.id in defined:
                        registered.add(node.name)
        for name, node in defined.items():
            own = {id(n) for n in ast.walk(node)}
            used = name in registered or any(
                isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                and id(n) not in own
                for n in ast.walk(tree)
            )
            if not used:
                unused.append(f"{path.name}: {name}")
    assert unused == []
