"""Every public name has one home, the module that defines it, and a caller."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import qillum

ROOT = Path(__file__).resolve().parent.parent
ALIAS = "receiver_click_prob"


def test_each_public_name_has_one_home():
    # the package re-exports nothing: the only public names it binds are its
    # submodules, bound there by their own import.  Each is imported here, so
    # the check does not depend on which test files ran before.
    for module in pkgutil.iter_modules(qillum.__path__):
        importlib.import_module(f"qillum.{module.name}")
    public = {name: value for name, value in vars(qillum).items() if not name.startswith("_")}
    assert public and all(isinstance(value, types.ModuleType) and value.__name__ == f"qillum.{name}"
                          for name, value in public.items()), sorted(public)
    # channel's alias of povm.click_probability has no caller left: outside
    # this file, only its own definition names it
    hits = [
        (path.relative_to(ROOT).as_posix(), line.split("(")[0])
        for folder in ("src", "scripts", "tests")
        for path in sorted((ROOT / folder).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts and path != Path(__file__).resolve()
        for line in path.read_text(errors="replace").splitlines() if ALIAS in line
    ]
    assert hits == [("src/qillum/channel.py", f"def {ALIAS}")]


# perfbench/tracer.py wraps channel.receiver_click_prob by name; it goes with
# that entry, when the benchmark's traced names change (ROADMAP items 1 and 16)
UNCALLED = {"receiver_click_prob"}


def _referenced(node) -> set:
    """Every name ``node`` reads: names, attribute names and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return names


def test_every_top_level_definition_has_a_caller():
    # a def or class nothing in the package or the scripts reads is dead code,
    # whatever tests call it; a reference from inside its own body is no caller
    package = sorted((ROOT / "src" / "qillum").glob("*.py"))
    defined, referenced = [], set()
    for path in package + sorted((ROOT / "scripts").glob("*.py")):
        for statement in ast.parse(path.read_text(), filename=str(path)).body:
            names = _referenced(statement)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                if path in package:
                    defined.append((statement.name, f"{path.stem}.{statement.name}"))
                names.discard(statement.name)
            referenced |= names
    uncalled = sorted(home for name, home in defined
                      if name not in referenced and name not in UNCALLED)
    assert not uncalled, uncalled
