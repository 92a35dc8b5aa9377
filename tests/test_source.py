"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lilklucb"


def _nodes(*types) -> list[str]:
    """``file:line`` of every node of the given types in the package source."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, types)
    ]


def test_no_assert_statements():
    """An invariant checked only by ``assert`` is gone under ``python -O``."""
    assert _nodes(ast.Assert) == []


def test_no_global_statements():
    """No function rebinds module state: a worker process would keep its own copy."""
    assert _nodes(ast.Global, ast.Nonlocal) == []
