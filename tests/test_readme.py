"""The README's `## Library` example runs, and each commented result holds.

A comment after a statement is the result it promises: the value of an
expression, or of the name an assignment binds.  Polynomials compare by
their text, witnesses as "status: (g)(h)", everything else by repr.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

from admissible import FactorizationWitness, MonicIntPolynomial

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _render(value) -> str:
    if isinstance(value, MonicIntPolynomial):
        return value.text()
    if isinstance(value, FactorizationWitness):
        return f"{value.status}: " + "".join(f"({g.text()})" for g in value.factors or ())
    return repr(value)


def test_library_example_results_hold():
    source = _library_block()
    comments = {
        tok.start[0]: tok.string.lstrip("# ").rstrip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        if stmt.end_lineno in comments:
            assert _render(value) == comments[stmt.end_lineno], ast.unparse(stmt)
            checked += 1
    assert checked == 5
