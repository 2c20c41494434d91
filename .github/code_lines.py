"""Count the code lines of Python files, as ``wc -l`` counts raw lines.

A code line holds at least one token that is not a comment and is not part
of a docstring, so blank, comment and docstring lines do not count. A
directory stands for the ``*.py`` files under it::

    python .github/code_lines.py src/cxrdet/*.py
    python .github/code_lines.py src
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = {
        line
        for tok in tokenize.tokenize(io.BytesIO(source).readline)
        if tok.type not in NOT_CODE
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    return len(code - docstrings)


if __name__ == "__main__":
    total = 0
    for arg in sys.argv[1:]:
        for path in sorted(Path(arg).rglob("*.py")) if Path(arg).is_dir() else [arg]:
            n = code_lines(path)
            total += n
            print(f"{n:8d} {path}")
    print(f"{total:8d} total")
