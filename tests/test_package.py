"""Every public name has one home: the module that defines it."""

import types
from pathlib import Path

import qillum

ROOT = Path(__file__).resolve().parent.parent
ALIAS = "receiver_click_prob"


def test_each_public_name_has_one_home():
    # the package re-exports nothing: the only public names it binds are its
    # submodules, bound there by their own import
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
