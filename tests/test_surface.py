"""The package exports exactly what the README and the demos import from
it, plus the two exceptions a caller of ``run()`` catches."""
import ast
import re
import types
from pathlib import Path

import dpfed

ROOT = Path(__file__).resolve().parent.parent


def imported_names() -> set[str]:
    """Every name imported ``from dpfed`` in README.md and demos/*.py."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = {name.strip() for groups in re.findall(
        r"from dpfed import (?:\(([^)]*)\)|([\w ,]+))", readme)
        for name in "".join(groups).split(",") if name.strip()}
    for path in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and node.module == "dpfed" and not node.level
                     for alias in node.names)
    return names


def test_exports_are_what_readme_and_demos_import():
    names = imported_names()
    assert {"RunConfig", "run", "third_party_epsilon"} <= names
    for name in names:
        assert getattr(dpfed, name) is not None, name
    public = {name for name, value in vars(dpfed).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == names | {"ConfigurationError", "DivergenceError"}
