"""Every parameter of every function in the package is read by its body.

A parameter the body never reads is an option that does nothing.  The
cmd_* handlers are exempt: the CLI dispatch table fixes their signature
(cfg, args), and not every command has flags to read.
"""

import ast
from pathlib import Path

import holonomy_lab

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
