"""The README's `## Library` example runs, and each commented result holds.

A comment after a statement is the result it promises: the value of an
expression, or of the name an assignment binds.  Polynomials compare by
their text, witnesses as "status: (g)(h)", everything else by repr.
The README's table of safety limits names every `*_LIMIT` constant of
the package with its value and module, and no other.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

from admissible import FactorizationWitness, MonicIntPolynomial

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "admissible"


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


def _limit_rows() -> dict[str, tuple[int, str]]:
    # `NAME` | 20,000 or 10^9 | `module` rows of the README limits table.
    rows = {}
    for name, value, module in re.findall(
        r"^\s*\| `(\w+_LIMIT)` \| ([\d,^]+) \| `(\w+)` \|", README.read_text(), re.M
    ):
        base, _, exponent = value.replace(",", "").partition("^")
        rows[name] = (int(base) ** int(exponent or 1), module)
    return rows


def _limit_constants() -> dict[str, tuple[int, str]]:
    # Every module-level NAME_LIMIT assignment in the package, by defining module.
    constants = {}
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            for target in stmt.targets if isinstance(stmt, ast.Assign) else ():
                if isinstance(target, ast.Name) and target.id.endswith("_LIMIT"):
                    module = importlib.import_module(f"admissible.{path.stem}")
                    constants[target.id] = (getattr(module, target.id), path.stem)
    return constants


def test_limits_table_matches_the_constants():
    constants = _limit_constants()
    assert len(constants) >= 10
    assert _limit_rows() == constants
