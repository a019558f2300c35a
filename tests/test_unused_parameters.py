"""Every parameter of every function in the package is read by its body,
every config key is read by some code, and every function, class and
module constant the package defines is referenced by it.

A parameter the body never reads is an option that does nothing, and so
is a config key nothing reads: it changes only the config hash.  The
cmd_* handlers are exempt: the CLI dispatch table fixes their signature
(cfg, args), and not every command has flags to read.  A definition
nothing in the package references is stranded code, unless it is a
public entry point kept on purpose (TEST_ONLY, one reason each).
"""

import ast
from dataclasses import fields
from pathlib import Path

import holonomy_lab
from holonomy_lab.config import RunConfig

SRC = Path(holonomy_lab.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unread_parameters(source: str) -> list[str]:
    """'line name(param)' for every parameter that no name in the body loads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCTIONS):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("cmd_"):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.lineno} {name}({p})" for p in params if p not in read]
    return found


def test_checker_flags_an_unread_parameter():
    source = ("def f(a, b, *, c=1):\n    return a + c\n"
              "def cmd_x(cfg, args):\n    return 0\n"
              "g = lambda x, y: x\n")
    assert unread_parameters(source) == ["1 f(b)", "5 <lambda>(y)"]


def test_every_parameter_is_read():
    unread = [f"{path.name}:{hit}" for path in sorted(SRC.glob("*.py"))
              for hit in unread_parameters(path.read_text())]
    assert unread == []


def loaded_attributes(sources: list[str]) -> set[str]:
    """Every attribute name that some expression in sources loads."""
    return {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_checker_flags_an_unread_config_key():
    source = "cfg.seed\ncfg.output_dir = 'x'\ngetattr(cfg, 'noise')\n"
    assert loaded_attributes([source]) == {"seed"}


def test_every_config_key_is_read():
    # A key no code loads as cfg.<key> changes only the config hash.  The
    # generic loops of config_hash and default_config_text use getattr on
    # the field name, so they do not count as reads.
    read = loaded_attributes([path.read_text() for path in sorted(SRC.glob("*.py"))])
    assert sorted(f.name for f in fields(RunConfig) if f.name not in read) == []


# Definitions only the tests call, each kept for a reason of its own.
TEST_ONLY = {
    "fit_rate_equation": "fits the paper's T1 rate-equation traces (acceptance criterion 11)",
    "fit_ramsey": "fits the paper's Ramsey fringes for T2* (acceptance criterion 11)",
    "fit_error_slope": "the robustness exponent of a Rabi-error sweep",
    "perturbative_expansion_check": "the Dyson-series check of the superrobust condition",
    "channel_from_unitary": "the ideal channel that tomography is checked against",
    "two_qubit_target": "the ideal CNOT block a two-qubit gate is scored against",
}


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Names of functions, classes and module-level assignments defined in
    sources that no name or attribute anywhere in them loads, dunders aside."""
    defined, referenced = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined.update(node.id for target in targets for node in ast.walk(target)
                               if isinstance(node, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted(n for n in defined - referenced if not n.startswith("__"))


def test_checker_flags_an_unreferenced_definition():
    sources = ["def used():\n    pass\nclass Box:\n    def __init__(self):\n"
               "        pass\n    def spare(self):\n        pass\n"
               "LIMIT = 3\nSPARE, PAIR = 1, 2\nTABLE: dict = {}\n__all__ = []\n",
               "from m import used, LIMIT\nused()\nBox().x\nm.PAIR\n"
               "def stranded():\n    local = 1\n    return local\n"]
    assert unreferenced_definitions(sources) == ["SPARE", "TABLE", "spare", "stranded"]


def test_no_definition_is_stranded():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_definitions(sources) == sorted(TEST_ONLY)
