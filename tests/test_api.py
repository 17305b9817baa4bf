"""Public API: the names of the layer modules and the README's library example."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import sqzsim

LAYERS = ["quantum", "pump", "opa", "homodyne", "dsp", "tomography"]

@pytest.mark.parametrize("name", LAYERS)
def test_all_names_resolve_once(name):
    module = importlib.import_module(f"sqzsim.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def _names_the_package_uses() -> set[str]:
    """Every name the package modules read, import or take an attribute of.

    Definitions, ``__all__`` strings and docstrings are not reads, and
    ``__init__.py`` only re-exports, so none of them counts.
    """
    used = set()
    for path in Path(sqzsim.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def _public_members(cls: type) -> list[str]:
    """The public methods and properties that ``cls`` defines itself."""
    kinds = (property, classmethod, staticmethod)
    return [
        name
        for name, attr in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(attr) or isinstance(attr, kinds))
    ]


def test_every_public_name_is_used_by_the_package():
    used = _names_the_package_uses()
    unused = []
    for name in LAYERS:
        module = importlib.import_module(f"sqzsim.{name}")
        for n in module.__all__:
            if n not in used:
                unused.append(f"{name}.{n}")
            obj = getattr(module, n)
            if inspect.isclass(obj):
                unused += [f"{name}.{n}.{m}" for m in _public_members(obj) if m not in used]
    assert unused == []


def _private_module_names() -> list[str]:
    """The module-level private functions, classes and constants of the package.

    Dunder names such as ``__all__`` and ``__version__`` are not private.
    """
    names = []
    for path in sorted(Path(sqzsim.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            names += [
                f"{path.stem}.{n}" for n in defined if n.startswith("_") and not n.startswith("__")
            ]
    return names


def test_every_private_name_is_used_by_the_package():
    used = _names_the_package_uses()
    private = _private_module_names()
    assert private, "no private names found"
    assert [n for n in private if n.split(".", 1)[1] not in used] == []


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert "N_FRAMES = 2000\n" in code
    # a tenth of the frames keeps the run short; every call is the same
    code = code.replace("N_FRAMES = 2000\n", "N_FRAMES = 200\n")
    exec(compile(code, "README.md", "exec"), {})
    s_db, pure_db, loss = map(float, capsys.readouterr().out.split())
    assert s_db < 0.0 and pure_db > 0.0 and 0.0 <= loss < 1.0
