"""No module of the package reaches into another's private names.

An _-prefixed name is its module's own: another module that loads it,
as an attribute of the imported module or through `from .mod import
_name`, depends on a decision its owner may change without notice.
Dunders such as __version__ are public.
"""

import ast
from pathlib import Path

import holonomy_lab

SRC = Path(holonomy_lab.__file__).parent
PACKAGE = SRC.name


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """'line module._name' for every private name of another package
    module that source loads."""
    tree = ast.parse(source)
    modules, found = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        owner = node.module or ""
        if not node.level:  # an absolute import counts only from the package
            if owner.split(".")[0] != PACKAGE:
                continue
            owner = owner.removeprefix(PACKAGE).lstrip(".")
        for alias in node.names:
            if not owner:  # from . import mod
                modules[alias.asname or alias.name] = alias.name
            elif _private(alias.name):  # from .mod import _name
                found.append((node.lineno, f"{owner}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules
                and _private(node.attr)):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return [f"{line} {name}" for line, name in sorted(found)]


def test_checker_flags_a_private_name_of_another_module():
    source = ("from . import __version__, evolve, model as m\n"
              "from .pulses import _hidden, shown\n"
              "from holonomy_lab.rb import _table\n"
              "from numpy import _private_ok\n"
              "evolve._time_grid(1.0, 0.5)\n"
              "m._QUBIT, evolve.gate_channel, self._cache, evolve.__name__\n"
              "evolve._patched = None\n")
    assert private_reaches(source) == ["2 pulses._hidden", "3 rb._table",
                                       "5 evolve._time_grid", "6 model._QUBIT"]


def test_no_module_loads_a_private_name_of_another():
    reaches = [f"{path.name}:{hit}" for path in sorted(SRC.glob("*.py"))
               for hit in private_reaches(path.read_text())]
    assert reaches == []
