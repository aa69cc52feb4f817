"""Every feature structure the package builds comes from the intern helper `fs._fs`."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "gramgrow")


def _fs_calls(tree):
    """The calls of FS(...) in a syntax tree."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "FS" or getattr(node.func, "attr", None) == "FS")
    ]


def test_only_the_intern_helper_calls_the_fs_constructor():
    names = [n for n in sorted(os.listdir(SRC)) if n.endswith(".py")]
    assert "fs.py" in names
    allowed = []
    stray = []
    for name in names:
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        helpers = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_fs" and name == "fs.py"
        ]
        inside = {id(call) for helper in helpers for call in _fs_calls(helper)}
        for call in _fs_calls(tree):
            (allowed if id(call) in inside else stray).append((name, call.lineno))
    # FS equality is identity: it holds only while `_fs` makes every FS, one
    # per root node
    assert len(allowed) == 1 and not stray, ("FS(...) outside fs._fs breaks identity equality", stray)
