"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lilklucb"


def _nodes(*types, where=lambda node: True) -> list[str]:
    """``file:line`` of every node of the given types, and accepted by ``where``, in the source."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, types) and where(node)
    ]


def test_no_assert_statements():
    """An invariant checked only by ``assert`` is gone under ``python -O``."""
    assert _nodes(ast.Assert) == []


def test_no_global_statements():
    """No function rebinds module state: a worker process would keep its own copy."""
    assert _nodes(ast.Global, ast.Nonlocal) == []


def test_no_environment_reads():
    """Every input is a flag or a --config key: none comes from the environment."""
    names = {"environ", "getenv", "putenv"}

    def reads_environment(node) -> bool:
        if isinstance(node, ast.Attribute):
            return (isinstance(node.value, ast.Name) and node.value.id == "os"
                    and node.attr in names)
        return node.module == "os" and any(alias.name in names for alias in node.names)

    assert _nodes(ast.Attribute, ast.ImportFrom, where=reads_environment) == []


def test_no_fromiter_calls():
    """Arrays are built by NumPy calls, not by a Python loop feeding ``np.fromiter``."""

    def calls_fromiter(node) -> bool:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "fromiter"

    assert _nodes(ast.Call, where=calls_fromiter) == []
