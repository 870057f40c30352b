import ast
from pathlib import Path

import orthosep

PACKAGE = Path(orthosep.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert; invariants raise OrthosepError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
