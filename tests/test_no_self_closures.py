"""No nested function in the package calls itself: such a function closes
over its own cell, so every call leaves a reference cycle (the function and
whatever it captures) for the cyclic collector."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "gramgrow")

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_no_nested_function_refers_to_its_own_name():
    names = [n for n in sorted(os.listdir(SRC)) if n.endswith(".py")]
    assert names
    found = []
    for name in names:
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        for outer in ast.walk(tree):
            if not isinstance(outer, FUNCTIONS):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, FUNCTIONS):
                    continue
                if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                    found.append((name, inner.name, inner.lineno))
    assert not found, found
