"""Every feature structure the package builds comes from the intern helper
`fs._fs`, and every rule from the interner `grammar.rule_of`."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "gramgrow")


def _calls(tree, cls):
    """The calls of cls(...) in a syntax tree."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == cls or getattr(node.func, "attr", None) == cls)
    ]


def _constructor_calls(cls, module, helper):
    """(calls inside `helper` of `module`, calls anywhere else) of cls(...),
    each as (file name, line)."""
    names = [n for n in sorted(os.listdir(SRC)) if n.endswith(".py")]
    assert module in names
    allowed = []
    stray = []
    for name in names:
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        helpers = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == helper and name == module
        ]
        inside = {id(call) for h in helpers for call in _calls(h, cls)}
        for call in _calls(tree, cls):
            (allowed if id(call) in inside else stray).append((name, call.lineno))
    return allowed, stray


def test_only_the_intern_helper_calls_the_fs_constructor():
    allowed, stray = _constructor_calls("FS", "fs.py", "_fs")
    # FS equality is identity: it holds only while `_fs` makes every FS, one
    # per root node
    assert len(allowed) == 1 and not stray, ("FS(...) outside fs._fs breaks identity equality", stray)


def test_only_rule_of_calls_the_rule_constructor():
    allowed, stray = _constructor_calls("Rule", "grammar.py", "rule_of")
    # rules key process-wide memos by identity: that holds only while
    # `rule_of` makes every rule, one per (id, arity, instances, origin)
    assert len(allowed) == 1 and not stray, ("Rule(...) outside grammar.rule_of", stray)
