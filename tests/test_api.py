"""Public API: the names of the layer modules and the README's library example."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import sqzsim

LAYERS = ["quantum", "pump", "opa", "homodyne", "dsp", "tomography"]

# Public names the package itself need not use: the hbar = 2 convention
# constants, and the closed-form states and mode spectrum that tests use
# as oracles for the simulated chain.
UNUSED_BY_DESIGN = {
    "HBAR",
    "VACUUM_VARIANCE",
    "squeezed_state",
    "vacuum_state",
    "pure_db_from_r",
    "mode_spectrum",
}

# Public methods of exported classes the package need not use: the mode
# overlap and out-of-band fraction that acceptance 7 checks geometry with.
UNUSED_MEMBERS_BY_DESIGN = {
    "TemporalMode.overlap",
    "ModeSpectrum.out_of_band_fraction",
}


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
            if n not in used and n not in UNUSED_BY_DESIGN:
                unused.append(f"{name}.{n}")
            obj = getattr(module, n)
            if inspect.isclass(obj):
                unused += [
                    f"{name}.{n}.{m}"
                    for m in _public_members(obj)
                    if m not in used and f"{n}.{m}" not in UNUSED_MEMBERS_BY_DESIGN
                ]
    assert unused == []


def test_every_unused_by_design_entry_names_an_export_the_package_does_not_use():
    used = _names_the_package_uses()
    names, members = set(), set()
    for name in LAYERS:
        module = importlib.import_module(f"sqzsim.{name}")
        names.update(module.__all__)
        for n in module.__all__:
            obj = getattr(module, n)
            if inspect.isclass(obj):
                members.update(f"{n}.{m}" for m in _public_members(obj))
    # a stale entry would outlive its name, or hide a use the package now makes
    assert sorted(UNUSED_BY_DESIGN - names) == []
    assert sorted(UNUSED_BY_DESIGN & used) == []
    assert sorted(UNUSED_MEMBERS_BY_DESIGN - members) == []
    assert sorted(m for m in UNUSED_MEMBERS_BY_DESIGN if m.split(".")[1] in used) == []


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
