"""Print the physical and code line counts of the package source.

A code line holds a token that is neither a comment nor part of a
docstring (the first string statement of a module, class or function).
Blank lines, comment lines and docstring lines do not count.  A
directory prints one line per module under it, then its total; a file
prints its own line.  A path that holds no Python source exits 1.

    python tools/count_lines.py [directory or file]     # default: src
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of source with a token outside every comment and docstring."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main(root: str = "src") -> None:
    top = Path(root)
    paths = [top] if top.is_file() and top.suffix == ".py" else sorted(top.rglob("*.py"))
    if not paths:
        sys.exit(f"{root}: no Python source")
    sources = [path.read_text() for path in paths]
    rows = [(len(source.splitlines()), code_lines(source)) for source in sources]
    if top.is_dir():
        for path, (physical, code) in zip(paths, rows):
            print(f"  {path.relative_to(top)}: {physical} physical lines, {code} code lines")
    physical, code = map(sum, zip(*rows))
    print(f"{root}: {physical} physical lines, {code} code lines")


if __name__ == "__main__":
    main(*sys.argv[1:])
